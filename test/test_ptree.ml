(* Tests for the AVL tree under Map_lattice (lib/core/ptree.ml): the
   tree invariants after random operation sequences against a sorted
   association-list model, the physical-sharing contracts of [add],
   [union] and [diff], and what they buy Map_lattice — Δ between a state
   and its own earlier image agrees with the pointwise lookup walk and
   the decompose-based oracle while calling the value lattice's Δ only
   on the keys that changed — plus the O(n) decode path and its
   fallback for non-canonical encodings. *)

open Crdt_core
module Gen = QCheck.Gen
module Codec = Crdt_wire.Codec
module P = Ptree.Make (Int)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Invariants and the model                                           *)
(* ------------------------------------------------------------------ *)

(* Keys strictly ascend within (lo, hi), every cached height is right,
   and sibling heights differ by at most 1.  Returns the height. *)
let rec check_tree ?lo ?hi = function
  | P.Empty -> 0
  | P.Node { l; k; r; h; _ } ->
      (match lo with
      | Some lo when lo >= k -> Alcotest.failf "key %d not above %d" k lo
      | _ -> ());
      (match hi with
      | Some hi when k >= hi -> Alcotest.failf "key %d not below %d" k hi
      | _ -> ());
      let hl = check_tree ?lo ~hi:k l and hr = check_tree ~lo:k ?hi r in
      if abs (hl - hr) > 1 then
        Alcotest.failf "unbalanced at key %d: heights %d and %d" k hl hr;
      if h <> 1 + max hl hr then
        Alcotest.failf "cached height %d at key %d, actual %d" h k
          (1 + max hl hr);
      h

(* The model: an association list with strictly ascending keys. *)
let model_add k v m = List.sort compare ((k, v) :: List.remove_assoc k m)

let model_union f m1 m2 =
  List.fold_left
    (fun acc (k, v2) ->
      match List.assoc_opt k acc with
      | Some v1 -> model_add k (f k v1 v2) acc
      | None -> model_add k v2 acc)
    m1 m2

let model_diff f m1 m2 =
  List.filter_map
    (fun (k, v1) ->
      match List.assoc_opt k m2 with
      | None -> Some (k, v1)
      | Some v2 -> Option.map (fun v -> (k, v)) (f k v1 v2))
    m1

let of_model m = List.fold_left (fun t (k, v) -> P.add k v t) P.empty m

let agrees what t m =
  ignore (check_tree t);
  if P.bindings t <> m then
    Alcotest.failf "%s: tree bindings differ from the model" what

type op =
  | Add of int * int
  | Remove of int
  | Union of (int * int) list
  | Diff of (int * int) list
  | Split of int * bool

let print_op = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Union l -> Printf.sprintf "union [%d bindings]" (List.length l)
  | Diff l -> Printf.sprintf "diff [%d bindings]" (List.length l)
  | Split (k, below) ->
      Printf.sprintf "split %d keep-%s" k (if below then "below" else "above")

let gen_key = Gen.int_bound 200
let gen_bindings = Gen.small_list (Gen.pair gen_key (Gen.int_bound 9))

let gen_op =
  Gen.frequency
    [
      (6, Gen.map2 (fun k v -> Add (k, v)) gen_key (Gen.int_bound 9));
      (3, Gen.map (fun k -> Remove k) gen_key);
      (2, Gen.map (fun l -> Union l) gen_bindings);
      (1, Gen.map (fun l -> Diff l) gen_bindings);
      (1, Gen.map2 (fun k b -> Split (k, b)) gen_key Gen.bool);
    ]

let sum _ a b = a + b
let minus _ a b = if a > b then Some (a - b) else None

let model_of_bindings l = List.fold_left (fun m (k, v) -> model_add k v m) [] l

let run_ops ops =
  let step (t, m) op =
    let t, m =
      match op with
      | Add (k, v) -> (P.add k v t, model_add k v m)
      | Remove k -> (P.remove k t, List.remove_assoc k m)
      | Union l ->
          let m2 = model_of_bindings l in
          (P.union sum t (of_model m2), model_union sum m m2)
      | Diff l ->
          let m2 = model_of_bindings l in
          (P.diff minus t (of_model m2), model_diff minus m m2)
      | Split (k, below) ->
          let l, found, r = P.split k t in
          if found <> List.assoc_opt k m then
            Alcotest.failf "split %d: wrong binding" k;
          agrees "split below" l (List.filter (fun (k', _) -> k' < k) m);
          agrees "split above" r (List.filter (fun (k', _) -> k' > k) m);
          (* Rejoining the pieces restores the tree. *)
          let whole =
            match found with Some v -> P.join l k v r | None -> P.concat l r
          in
          agrees "join of the split" whole m;
          if below then (l, List.filter (fun (k', _) -> k' < k) m)
          else (r, List.filter (fun (k', _) -> k' > k) m)
    in
    agrees (print_op op) t m;
    (t, m)
  in
  ignore (List.fold_left step (P.empty, []) ops);
  true

let random_ops =
  qtest
    (QCheck.Test.make ~count:300 ~name:"random op sequences keep AVL invariants"
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map print_op ops))
          (Gen.list_size (Gen.int_range 1 120) gen_op))
       run_ops)

(* ------------------------------------------------------------------ *)
(* Sharing contracts                                                   *)
(* ------------------------------------------------------------------ *)

let big n = of_model (List.init n (fun i -> (2 * i, i)))

let sharing_tests =
  [
    Alcotest.test_case "add of a physically equal value is a no-op" `Quick
      (fun () ->
        let t = big 500 in
        List.iter
          (fun k ->
            match P.find_opt k t with
            | Some v -> check "same tree" true (P.add k v t == t)
            | None -> Alcotest.failf "key %d missing" k)
          [ 0; 2; 500; 998 ];
        check "remove of an absent key is a no-op" true (P.remove 1 t == t));
    Alcotest.test_case "union calls f once per collided key" `Quick
      (fun () ->
        let t1 = big 300 and t2 = of_model (List.init 200 (fun i -> (3 * i, i))) in
        let calls = ref 0 in
        let u = P.union (fun _ a b -> incr calls; a + b) t1 t2 in
        let collided =
          List.length
            (List.filter
               (fun i -> 3 * i mod 2 = 0 && 3 * i < 600)
               (List.init 200 Fun.id))
        in
        check_int "calls" collided !calls;
        ignore (check_tree u);
        (* The other argument order too: f still runs once per key. *)
        calls := 0;
        ignore (P.union (fun _ a b -> incr calls; a + b) t2 t1);
        check_int "calls, swapped" collided !calls);
    Alcotest.test_case "union that changes nothing returns its left operand"
      `Quick (fun () ->
        let keep _ a b = if b <= a then a else b in
        let t = big 400 in
        List.iter
          (fun n ->
            let sub = of_model (List.init n (fun i -> (4 * i, 0))) in
            check (Printf.sprintf "subset of %d" n) true (P.union keep t sub == t))
          [ 0; 1; 2; 7; 50; 200 ];
        check "self" true (P.union keep t t == t);
        (* A right operand taller than the left, so union splits the left
           one: a sparse (Fibonacci) AVL tree of height 7 over 33 keys
           against a balanced height-6 tree over a superset of them. *)
        let next = ref 0 in
        let rec sparse h =
          if h <= 0 then P.Empty
          else
            let l = sparse (h - 1) in
            let k = !next in
            incr next;
            P.Node { l; k; v = 0; r = sparse (h - 2); h }
        in
        let tall = sparse 7 in
        check_int "tall height" 7 (check_tree tall);
        let wide = P.of_sorted (List.init 60 (fun i -> (i, 1))) in
        check_int "wide height" 6 (check_tree wide);
        check "taller right operand" true (P.union keep wide tall == wide);
        let grown = P.union keep t (P.singleton 1 0) in
        check "a new key changes the tree" false (grown == t));
    Alcotest.test_case "diff skips physically shared subtrees" `Quick
      (fun () ->
        let x = big 1024 in
        let y =
          List.fold_left
            (fun t k -> P.add k (k + 1000) t)
            x [ 10; 700; 1500; 1501; 3000 ]
        in
        let calls = ref 0 in
        let d =
          P.diff
            (fun _ a b ->
              incr calls;
              if a = b then None else Some a)
            y x
        in
        Alcotest.(check (list (pair int int)))
          "changed bindings"
          [ (10, 1010); (700, 1700); (1500, 2500); (1501, 2501); (3000, 4000) ]
          (P.bindings d);
        ignore (check_tree d);
        (* Only keys on the paths to the changes reach f; a walk over the
           whole state would call it 1,024 times. *)
        if !calls > 5 * 2 * P.height x then
          Alcotest.failf "f called %d times for 5 changes" !calls;
        check "diff of a tree with itself is empty" true
          (P.is_empty (P.diff minus x x)));
    Alcotest.test_case "of_sorted builds a balanced tree" `Quick (fun () ->
        List.iter
          (fun n ->
            let m = List.init n (fun i -> (i, i)) in
            let t = P.of_sorted m in
            agrees (Printf.sprintf "of_sorted %d" n) t m;
            let bound = ref 0 in
            while 1 lsl !bound <= n do incr bound done;
            if P.height t > !bound then
              Alcotest.failf "of_sorted %d: height %d > %d" n (P.height t) !bound)
          [ 0; 1; 2; 3; 7; 8; 100; 1023; 1024 ]);
    Alcotest.test_case "equal and compare follow the binding sequences" `Quick
      (fun () ->
        let a = big 100 in
        let b = of_model (List.rev (P.bindings a)) in
        check "equal, built differently" true (P.equal Int.equal a b);
        check_int "compare, built differently" 0 (P.compare Int.compare a b);
        let c = P.add 50 7 a in
        check "differs" false (P.equal Int.equal a c);
        check_int "compare agrees with the lists"
          (compare (P.bindings a) (P.bindings c))
          (P.compare Int.compare a c);
        check_int "proper prefix sorts first" (-1)
          (P.compare Int.compare (P.remove 198 a) a));
  ]

(* ------------------------------------------------------------------ *)
(* Map_lattice on top                                                  *)
(* ------------------------------------------------------------------ *)

(* A max-int value lattice that counts its Δ calls. *)
let delta_calls = ref 0

module Counted = struct
  include Chain.Max_int

  let delta a b =
    incr delta_calls;
    delta a b
end

module M = Map_lattice.Make (Gmap.Int_key) (Counted)
module Oracle = Delta.Make (M)

(* Δ by its pointwise definition: every binding of [y] whose value is
   not below [x]'s, reduced to the value lattice's Δ. *)
let pointwise_delta y x =
  M.of_list
    (M.fold
       (fun k v acc -> (k, Chain.Max_int.delta v (M.find k x)) :: acc)
       y [])

(* A state built the way a replica's is: successive [set]s of larger
   values and joins of small δ-groups. *)
type build = Set of int * int | Join of (int * int) list

let gen_build n_keys =
  Gen.frequency
    [
      ( 4,
        Gen.map2
          (fun k v -> Set (k, v))
          (Gen.int_bound n_keys) (Gen.int_range 1 50) );
      ( 1,
        Gen.map
          (fun l -> Join l)
          (Gen.list_size (Gen.int_bound 6)
             (Gen.pair (Gen.int_bound n_keys) (Gen.int_range 1 50))) );
    ]

let apply_build x = function
  | Set (k, v) -> M.set k (max v (M.find k x)) x
  | Join l -> M.join x (M.of_list l)

let gen_shared =
  let open Gen in
  let* n_keys = int_range 8 400 in
  let* steps = list_size (int_range 1 400) (gen_build n_keys) in
  (* The δ-group reaches past the built keys as well, so joining it can
     grow the tree on its right edge and rotate at the root. *)
  let* d =
    list_size (int_bound 30) (pair (int_bound (2 * n_keys)) (int_range 1 60))
  in
  let* ascending = int_bound 40 in
  return (steps, d, List.init ascending (fun i -> (n_keys + 1 + i, 1)))

let shared_delta =
  qtest
    (QCheck.Test.make ~count:150
       ~name:"Δ(x ⊔ d, x) = pointwise walk = decompose oracle"
       (QCheck.make
          ~print:(fun (steps, d, asc) ->
            Printf.sprintf "%d build steps, |d| = %d, %d ascending keys"
              (List.length steps) (List.length d) (List.length asc))
          gen_shared)
       (fun (steps, d, asc) ->
         let x = List.fold_left apply_build M.empty steps in
         let d = M.of_list (d @ asc) in
         let y = M.join x d in
         let got = M.delta y x in
         M.equal got (pointwise_delta y x)
         && M.equal got (Oracle.delta y x)
         && M.weight got = M.weight (pointwise_delta y x)
         && M.byte_size got = M.byte_size (pointwise_delta y x)
         && M.equal (M.join x got) y
         (* Joining what is already there changes nothing, physically. *)
         && M.join y got == y
         && M.join y x == y
         && M.join x M.bottom == x))

let map_lattice_tests =
  [
    Alcotest.test_case "Δ against an earlier image touches only the changes"
      `Quick (fun () ->
        let x = M.of_list (List.init 1024 (fun i -> (i, i + 1))) in
        let y =
          List.fold_left (fun t k -> M.set k (M.find k t + 5) t) x
            [ 3; 100; 512; 900; 1023 ]
        in
        let y = M.join y (M.singleton 5000 1) in
        delta_calls := 0;
        let d = M.delta y x in
        Alcotest.(check (list (pair int int)))
          "delta"
          [ (3, 9); (100, 106); (512, 518); (900, 906); (1023, 1029); (5000, 1) ]
          (M.bindings d);
        (* One Δ per changed key that [x] binds; the keys the two images
           share are never looked at. *)
        check_int "value Δ calls" 5 !delta_calls;
        check "Δ of a state with itself is ⊥" true (M.is_bottom (M.delta y y)));
    Alcotest.test_case "small δ-group against a large state" `Quick (fun () ->
        let x = M.of_list (List.init 1024 (fun i -> (i, 10))) in
        let d = M.of_list [ (3, 5); (7, 11); (2000, 1) ] in
        Alcotest.(check (list (pair int int)))
          "lookup walk" [ (7, 11); (2000, 1) ] (M.bindings (M.delta d x)));
  ]

(* ------------------------------------------------------------------ *)
(* Decode                                                              *)
(* ------------------------------------------------------------------ *)

let raw_codec = Codec.list (Codec.pair Codec.int Codec.int)

let decode_raw l =
  match Codec.decode_string M.codec (Codec.encode_to_string raw_codec l) with
  | Ok m -> m
  | Error e -> Alcotest.failf "decode: %s" (Codec.error_to_string e)

let same_as_of_list what l =
  let got = decode_raw l and want = M.of_list l in
  if not (M.equal got want) then
    Alcotest.failf "%s: decode differs from of_list" what;
  check_int (what ^ ": weight") (M.weight want) (M.weight got);
  check_int (what ^ ": byte_size") (M.byte_size want) (M.byte_size got);
  check_int (what ^ ": cardinal") (M.cardinal want) (M.cardinal got);
  check (what ^ ": no ⊥ binding") true
    (M.fold (fun _ v ok -> ok && v <> 0) got true)

let decode_tests =
  [
    Alcotest.test_case "canonical encodings round-trip" `Quick (fun () ->
        List.iter
          (fun n ->
            let x = M.of_list (List.init n (fun i -> (3 * i, i + 1))) in
            let y = decode_raw (M.bindings x) in
            check (Printf.sprintf "n=%d equal" n) true (M.equal x y);
            check_int "weight" (M.weight x) (M.weight y);
            check_int "byte_size" (M.byte_size x) (M.byte_size y))
          [ 0; 1; 2; 5; 64; 1000 ]);
    qtest
      (QCheck.Test.make ~count:300
         ~name:"shuffled, duplicate-key and ⊥-valued encodings decode as of_list"
         (QCheck.make
            ~print:(fun l ->
              String.concat "; "
                (List.map (fun (k, v) -> Printf.sprintf "%d↦%d" k v) l))
            Gen.(small_list (pair (int_bound 20) (int_bound 4))))
         (fun l ->
           same_as_of_list "random" l;
           same_as_of_list "sorted with duplicates"
             (List.stable_sort (fun (a, _) (b, _) -> compare a b) l);
           true));
    Alcotest.test_case "non-canonical corner cases" `Quick (fun () ->
        same_as_of_list "⊥ value" [ (1, 1); (2, 0); (3, 1) ];
        same_as_of_list "leading ⊥" [ (1, 0); (2, 1) ];
        same_as_of_list "duplicate key, last wins" [ (1, 1); (2, 5); (2, 3) ];
        same_as_of_list "duplicate key then ⊥" [ (1, 1); (1, 0) ];
        same_as_of_list "descending" [ (3, 1); (2, 1); (1, 1) ];
        check_int "last duplicate wins" 3
          (M.find 2 (decode_raw [ (1, 1); (2, 5); (2, 3) ])));
  ]

let () =
  Alcotest.run "ptree"
    [
      ("invariants", [ random_ops ]);
      ("sharing", sharing_tests);
      ("map_lattice", shared_delta :: map_lattice_tests);
      ("decode", decode_tests);
    ]
