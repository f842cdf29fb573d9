(** Finite-function composition [U ↪→ A]: maps from an unordered key set
    to a lattice, absent keys standing for [⊥].

    This is the lattice underlying GCounter ([I ↪→ ℕ]), GMap and the
    PNCounter of Appendix C.  Join is pointwise; the order is pointwise;
    decomposition (Appendix C) is
    [⇓f = { {k ↦ v} | k ∈ dom f ∧ v ∈ ⇓f(k) }].

    Invariant: no key is ever bound to [⊥] (such a binding is
    indistinguishable from absence and would break [equal]/[weight]).

    {b Cached sizes.}  The representation carries the map's total weight
    and byte size, maintained incrementally: [join] corrects the sum of
    both operands' sizes by the overlap on collided keys (which the union
    callback visits anyway), [set] adjusts by the replaced binding.
    [weight] and [byte_size] are therefore O(1) — they sit on the
    simulator's per-message accounting and per-round memory-snapshot hot
    paths, where the former fold-the-whole-map cost dominated profiles.
    When the value lattice itself caches its sizes (e.g. nested maps),
    the per-collision correction stays O(1) too.

    {b Representation.}  The bindings live in a {!Ptree} — our own AVL
    tree, whose nodes are visible to this module — rather than
    [Stdlib.Map].  Updates ([set], [join]) copy only the paths to the
    keys they change, so a state and its own earlier image share every
    other subtree, and [delta] between them skips the shared subtrees
    instead of looking up every key (see [delta] below). *)

module type KEY = sig
  type t

  val compare : t -> t -> int
  val byte_size : t -> int
  val codec : t Crdt_wire.Codec.t
  val pp : Format.formatter -> t -> unit
end

module Make (K : KEY) (V : Lattice_intf.DECOMPOSABLE) : sig
  include Lattice_intf.DECOMPOSABLE

  val empty : t

  val find : K.t -> t -> V.t
  (** Total lookup: absent keys map to [V.bottom]. *)

  val singleton : K.t -> V.t -> t
  (** [singleton k v]; returns [bottom] when [v] is [⊥]. *)

  val set : K.t -> V.t -> t -> t
  (** [set k v m] replaces the binding of [k] (removing it if [v = ⊥]).
      Unlike {!join}, this is not necessarily an inflation; mutators must
      guarantee inflation themselves. *)

  val join_entry : K.t -> V.t -> t -> t
  (** [join_entry k v m = join m (singleton k v)]. *)

  val cardinal : t -> int
  val bindings : t -> (K.t * V.t) list
  val keys : t -> K.t list
  val fold : (K.t -> V.t -> 'a -> 'a) -> t -> 'a -> 'a
  val of_list : (K.t * V.t) list -> t
end = struct
  module M = Ptree.Make (K)

  type t = {
    m : V.t M.t;
    c : int;  (** cardinal. *)
    w : int;  (** Σ [V.weight] over the bindings. *)
    b : int;  (** Σ [K.byte_size] + [V.byte_size] over the bindings. *)
  }

  let bottom = { m = M.empty; c = 0; w = 0; b = 0 }
  let is_bottom t = M.is_empty t.m
  let weight t = t.w
  let byte_size t = t.b

  let join_union t1 t2 =
    (* Start from the disjoint sum and subtract the overlap: the union
       callback runs exactly on the collided keys, where the key and the
       two value sizes were each counted twice. *)
    if t1.m == t2.m then t1
    else
      let c = ref (t1.c + t2.c) in
      let w = ref (t1.w + t2.w) and b = ref (t1.b + t2.b) in
      let m =
        M.union
          (fun k v1 v2 ->
            let v = V.join v1 v2 in
            decr c;
            w := !w - V.weight v1 - V.weight v2 + V.weight v;
            b :=
              !b - K.byte_size k - V.byte_size v1 - V.byte_size v2
              + V.byte_size v;
            v)
          t1.m t2.m
      in
      (* The tree comes back physically when [t2] added nothing. *)
      if m == t1.m then t1 else { m; c = !c; w = !w; b = !b }

  let find k t = match M.find_opt k t.m with Some v -> v | None -> V.bottom

  (* The order check picks its walk by the cached cardinals.  A key
     present only in [m1] violates the order directly (the no-⊥-binding
     invariant means its value is non-bottom), so [c1 > c2] is an O(1)
     refutation by pigeonhole.  A small [m1] against a large [m2] — the
     δ-group-vs-state shape — walks only [m1] with O(log |m2|) lookups;
     comparable sizes use an allocation-free simultaneous walk over both
     ascending sequences.  (A [merge]-based walk would allocate the
     merged map just to discard it.)  Both walks short-circuit at the
     first violating key. *)
  let leq_lookup m1 m2 =
    M.for_all
      (fun k v1 ->
        match M.find_opt k m2 with Some v2 -> V.leq v1 v2 | None -> false)
      m1

  let leq_walk m1 m2 =
    let rec go s1 s2 =
      match s1 () with
      | Seq.Nil -> true
      | Seq.Cons ((k1, v1), s1') ->
          let rec advance s2 =
            match s2 () with
            | Seq.Nil -> false (* k1 (and the rest of m1) missing in m2. *)
            | Seq.Cons ((k2, v2), s2') -> (
                match K.compare k1 k2 with
                | n when n < 0 -> false (* k1 missing in m2. *)
                | 0 -> V.leq v1 v2 && go s1' s2'
                | _ -> advance s2')
          in
          advance s2
    in
    go (M.to_seq m1) (M.to_seq m2)

  let leq t1 t2 =
    t1.m == t2.m
    || t1.c <= t2.c
       &&
       if 8 * t1.c <= t2.c then leq_lookup t1.m t2.m
       else leq_walk t1.m t2.m

  let equal t1 t2 = t1.m == t2.m || (t1.w = t2.w && M.equal V.equal t1.m t2.m)
  let compare t1 t2 = M.compare V.compare t1.m t2.m

  (* The irreducible {k ↦ d} for a non-⊥ irreducible [d] of the value
     lattice. *)
  let irreducible k d =
    { m = M.singleton k d; c = 1; w = V.weight d; b = K.byte_size k + V.byte_size d }

  let decompose t =
    M.fold
      (fun k v acc ->
        List.fold_left (fun acc d -> irreducible k d :: acc) acc (V.decompose v))
      t.m []

  let fold_decompose f t acc =
    M.fold
      (fun k v acc -> V.fold_decompose (fun d acc -> f (irreducible k d) acc) v acc)
      t.m acc

  (* Join is pointwise, so only [d]'s keys can change: each recurses into
     the value lattice against the local binding (⊥ when absent). *)
  let fold_changed f t d acc =
    M.fold
      (fun k dv acc ->
        V.fold_changed (fun y acc -> f (irreducible k y) acc) (find k t) dv acc)
      d.m acc

  (* The cached sizes of a freshly built tree. *)
  let of_tree m =
    match m with
    | M.Empty -> bottom
    | M.Node _ ->
        let c = ref 0 and w = ref 0 and b = ref 0 in
        M.fold
          (fun k v () ->
            incr c;
            w := !w + V.weight v;
            b := !b + K.byte_size k + V.byte_size v)
          m ();
        { m; c = !c; w = !w; b = !b }

  (* Δ is pointwise: keys only in [m1] survive whole, shared keys recurse
     into the value lattice, keys only in [m2] contribute nothing.  The
     walk is picked by the cached cardinals, at the same threshold as
     [leq]:

     - a small [m1] against a large [m2] — Δ(received δ-group, local
       state) — walks only [m1] with lookups into [m2];
     - comparable sizes go through [M.diff], which returns nothing for
       the subtrees the two trees share physically without walking
       them.  The persist sink's Δ(xₜ, xₜ₋₁) is this shape: [xₜ] is
       [xₜ₋₁] with a tick's updates, so the diff costs
       O(changes · log n) instead of one lookup per key of the state.
       The sizes are then summed over the (small) result.  On trees
       that share nothing the diff still beats the lookup walk at these
       sizes, since it builds its result by [join] rather than one
       [add] per kept key (46 µs against 209 µs for two unrelated
       1,000-key trees on a 2-vCPU VM). *)
  let delta_lookup t1 t2 =
    M.fold
      (fun k v1 acc ->
        let keep d =
          {
            m = M.add k d acc.m;
            c = acc.c + 1;
            w = acc.w + V.weight d;
            b = acc.b + K.byte_size k + V.byte_size d;
          }
        in
        match M.find_opt k t2.m with
        | None -> keep v1
        | Some v2 ->
            let d = V.delta v1 v2 in
            if V.is_bottom d then acc else keep d)
      t1.m bottom

  let delta_entry _ v1 v2 =
    if v1 == v2 then None
    else
      let d = V.delta v1 v2 in
      if V.is_bottom d then None else Some d

  let delta t1 t2 =
    if 8 * t1.c <= t2.c then delta_lookup t1 t2
    else
      let m = M.diff delta_entry t1.m t2.m in
      if m == t1.m then t1 else of_tree m

  (* Join is the plain union: a Δ-based join (b ⊔ Δ(a,b)) measured
     slower than it.  The representation moved off [Stdlib.Map] for Δ,
     not for join: [Stdlib.Map] cannot diff a state against its own
     earlier image without a lookup per key, and on the durable served
     workload (1,024 keys, a few dozen changed per tick) the persist
     sink's Δ took about 130 µs per tick — 51 ms of traced Δ time per
     sample, against 13.5 ms with the sharing-aware diff. *)
  let join = join_union

  let pp ppf t =
    let pp_binding ppf (k, v) =
      Format.fprintf ppf "@[<1>%a ↦@ %a@]" K.pp k V.pp v
    in
    Format.fprintf ppf "@[<1>{%a}@]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
         pp_binding)
      (M.bindings t.m)

  let empty = bottom

  let singleton k v =
    if V.is_bottom v then bottom
    else
      {
        m = M.singleton k v;
        c = 1;
        w = V.weight v;
        b = K.byte_size k + V.byte_size v;
      }

  let set k v t =
    let old = M.find_opt k t.m in
    let w, b =
      match old with
      | None -> (t.w, t.b)
      | Some o -> (t.w - V.weight o, t.b - K.byte_size k - V.byte_size o)
    in
    if V.is_bottom v then
      match old with
      | None -> t
      | Some _ -> { m = M.remove k t.m; c = t.c - 1; w; b }
    else
      let m = M.add k v t.m in
      if m == t.m then t
      else
        {
          m;
          c = (if old = None then t.c + 1 else t.c);
          w = w + V.weight v;
          b = b + K.byte_size k + V.byte_size v;
        }

  let join_entry k v t = join t (singleton k v)
  let cardinal t = t.c
  let bindings t = M.bindings t.m
  let keys t = List.map fst (M.bindings t.m)
  let fold f t acc = M.fold f t.m acc
  let of_list l = List.fold_left (fun t (k, v) -> set k v t) bottom l

  (* Encoded as the sorted binding list.  An honest encoding — keys
     strictly ascending, no ⊥ value — is built into a balanced tree in
     O(n).  Anything else goes through [of_list]/[set], which rebuilds
     the cached sizes, drops any ⊥-bound key and lets the last of
     duplicate keys win, so the no-⊥-binding invariant holds even for
     corrupt input. *)
  let of_bindings l =
    let rec canonical k = function
      | [] -> true
      | (k', v) :: rest ->
          K.compare k k' < 0 && (not (V.is_bottom v)) && canonical k' rest
    in
    match l with
    | (k, v) :: rest when (not (V.is_bottom v)) && canonical k rest ->
        of_tree (M.of_sorted l)
    | _ -> of_list l

  (* The writer walks the tree straight into the buffer — the bytes of
     [list (pair K.codec V.codec)] over [bindings], without building the
     list. *)
  let codec =
    let open Crdt_wire.Codec in
    let wire = list (pair K.codec V.codec) in
    {
      write =
        (fun buf t ->
          write_varint buf t.c;
          M.fold
            (fun k v () ->
              write K.codec buf k;
              write V.codec buf v)
            t.m ());
      read = (fun r -> Result.map of_bindings (read wire r));
    }
end
