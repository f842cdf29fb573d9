(** Persistent height-balanced (AVL) binary search trees with an exposed
    node structure.

    This is the representation under {!Map_lattice}.  [Stdlib.Map] would
    do for everything except one operation: the optimal delta between a
    state and its own earlier image.  Two such images share every
    subtree the intervening updates did not touch, but [Stdlib.Map]
    hides its nodes, so a diff cannot see the sharing and has to visit
    every key.  Here [diff] answers [Empty] on physically equal subtrees
    and [split] hands back the subtrees off its search path unchanged,
    so a diff of [x ⊔ d] against [x] costs O(|d| · log n).

    Invariants of every tree built by this module:
    - keys strictly ascend in an in-order walk;
    - each node caches its height ([Empty] has height 0);
    - the two children of each node differ in height by at most 1.

    The set operations ([union], [diff]) follow the join-based scheme of
    Blelloch, Ferizovic and Sun ("Just Join for Parallel Ordered Sets",
    SPAA 2016): everything is built from [split] and [join], and
    [join l k v r] rebalances along one spine only. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Make (Ord : ORDERED) : sig
  type key = Ord.t

  type 'v t = Empty | Node of { l : 'v t; k : key; v : 'v; r : 'v t; h : int }
  (** Exposed for the invariant checks in the test suite; build trees
      only through the functions below. *)

  val empty : 'v t
  val is_empty : 'v t -> bool
  val height : 'v t -> int
  val singleton : key -> 'v -> 'v t
  val find_opt : key -> 'v t -> 'v option

  val add : key -> 'v -> 'v t -> 'v t
  (** Returns the tree physically unchanged when [key] is already bound
      to a physically equal value. *)

  val remove : key -> 'v t -> 'v t
  (** Returns the tree physically unchanged when [key] is absent. *)

  val split : key -> 'v t -> 'v t * 'v option * 'v t
  (** [split k t] is [(below, binding of k, above)].  Subtrees of [t]
      off the search path for [k] appear in the result physically. *)

  val join : 'v t -> key -> 'v -> 'v t -> 'v t
  (** [join l k v r] for every key of [l] below [k] and every key of [r]
      above it, whatever the two heights. *)

  val concat : 'v t -> 'v t -> 'v t
  (** [concat l r] for every key of [l] below every key of [r]. *)

  val union : (key -> 'v -> 'v -> 'v) -> 'v t -> 'v t -> 'v t
  (** [union f t1 t2] binds the keys of both; a key bound in both is
      bound to [f k v1 v2], and [f] runs exactly once per such key.
      When every such [f] returns its [v1] physically and [t2] binds no
      key [t1] lacks, the result is [t1] physically. *)

  val diff : (key -> 'v -> 'v -> 'v option) -> 'v t -> 'v t -> 'v t
  (** [diff f t1 t2] keeps the bindings of [t1] whose key [t2] lacks,
      and for a key bound in both keeps [f k v1 v2] unless it is [None].
      Subtrees that [t1] and [t2] share physically contribute nothing
      and are not walked, so [f] must return [None] on [f k v v]. *)

  val of_sorted : (key * 'v) list -> 'v t
  (** Balanced tree of a list whose keys strictly ascend, in O(n).  The
      caller guarantees the order. *)

  val fold : (key -> 'v -> 'a -> 'a) -> 'v t -> 'a -> 'a
  (** In ascending key order. *)

  val for_all : (key -> 'v -> bool) -> 'v t -> bool
  val bindings : 'v t -> (key * 'v) list
  val to_seq : 'v t -> (key * 'v) Seq.t

  val equal : ('v -> 'v -> bool) -> 'v t -> 'v t -> bool
  val compare : ('v -> 'v -> int) -> 'v t -> 'v t -> int
  (** Lexicographic over the ascending binding sequences (a proper
      prefix sorts first).  [equal] and [compare] skip the remainder of
      a subtree both sides share physically, so [cmp] must be reflexive
      on physically equal values. *)
end = struct
  type key = Ord.t
  type 'v t = Empty | Node of { l : 'v t; k : key; v : 'v; r : 'v t; h : int }

  let empty = Empty
  let is_empty = function Empty -> true | Node _ -> false
  let height = function Empty -> 0 | Node n -> n.h

  (* A node over children whose heights differ by at most 1. *)
  let node l k v r =
    let hl = height l and hr = height r in
    Node { l; k; v; r; h = 1 + if hl >= hr then hl else hr }

  let singleton k v = Node { l = Empty; k; v; r = Empty; h = 1 }

  (* A node over AVL children whose heights differ by at most 2: one
     single or double rotation restores the bound. *)
  let balance l k v r =
    let hl = height l and hr = height r in
    if hl > hr + 1 then
      match l with
      | Node { l = ll; k = lk; v = lv; r = lr; _ } -> (
          if height ll >= height lr then node ll lk lv (node lr k v r)
          else
            match lr with
            | Node { l = lrl; k = lrk; v = lrv; r = lrr; _ } ->
                node (node ll lk lv lrl) lrk lrv (node lrr k v r)
            | Empty -> assert false)
      | Empty -> assert false
    else if hr > hl + 1 then
      match r with
      | Node { l = rl; k = rk; v = rv; r = rr; _ } -> (
          if height rr >= height rl then node (node l k v rl) rk rv rr
          else
            match rl with
            | Node { l = rll; k = rlk; v = rlv; r = rlr; _ } ->
                node (node l k v rll) rlk rlv (node rlr rk rv rr)
            | Empty -> assert false)
      | Empty -> assert false
    else node l k v r

  let rec find_opt k = function
    | Empty -> None
    | Node n ->
        let c = Ord.compare k n.k in
        if c = 0 then Some n.v else find_opt k (if c < 0 then n.l else n.r)

  let rec add k v = function
    | Empty -> singleton k v
    | Node n as t ->
        let c = Ord.compare k n.k in
        if c = 0 then if v == n.v then t else Node { n with v }
        else if c < 0 then
          let l = add k v n.l in
          if l == n.l then t else balance l n.k n.v n.r
        else
          let r = add k v n.r in
          if r == n.r then t else balance n.l n.k n.v r

  (* The least binding of a non-empty tree and the tree without it. *)
  let rec pop_min = function
    | Empty -> assert false
    | Node { l = Empty; k; v; r; _ } -> (k, v, r)
    | Node n ->
        let k, v, l = pop_min n.l in
        (k, v, balance l n.k n.v n.r)

  (* Two siblings' subtrees, all of [l] below all of [r]. *)
  let merge_siblings l r =
    match (l, r) with
    | Empty, t | t, Empty -> t
    | _ ->
        let k, v, r = pop_min r in
        balance l k v r

  let rec remove k = function
    | Empty -> Empty
    | Node n as t ->
        let c = Ord.compare k n.k in
        if c = 0 then merge_siblings n.l n.r
        else if c < 0 then
          let l = remove k n.l in
          if l == n.l then t else balance l n.k n.v n.r
        else
          let r = remove k n.r in
          if r == n.r then t else balance n.l n.k n.v r

  (* Descend the taller side's inner spine to where the shorter tree
     fits, then rebalance on the way back up: O(|hl - hr|). *)
  let rec join l k v r =
    match (l, r) with
    | Node nl, _ when nl.h > height r + 1 ->
        balance nl.l nl.k nl.v (join nl.r k v r)
    | _, Node nr when nr.h > height l + 1 ->
        balance (join l k v nr.l) nr.k nr.v nr.r
    | _ -> node l k v r

  let concat l r =
    match (l, r) with
    | Empty, t | t, Empty -> t
    | _ ->
        let k, v, r = pop_min r in
        join l k v r

  let rec split k = function
    | Empty -> (Empty, None, Empty)
    | Node n ->
        let c = Ord.compare k n.k in
        if c = 0 then (n.l, Some n.v, n.r)
        else if c < 0 then
          let below, found, above = split k n.l in
          (below, found, join above n.k n.v n.r)
        else
          let below, found, above = split k n.r in
          (join n.l n.k n.v below, found, above)

  (* [t1]'s root over children [l], [r] with value [v] — [t1] itself
     when none of the three changed. *)
  let rebuild t1 l v r =
    match t1 with
    | Node n -> if l == n.l && v == n.v && r == n.r then t1 else join l n.k v r
    | Empty -> assert false

  (* Split the shorter operand around the taller one's root, so the
     taller one's untouched children come back physically; on the other
     branch, [t1]'s pieces coming back physically with its binding kept
     means nothing changed, and [t1] itself is returned. *)
  let rec union f t1 t2 =
    match (t1, t2) with
    | Empty, t | t, Empty -> t
    | Node n1, Node n2 ->
        if n1.h >= n2.h then
          let l2, found, r2 = split n1.k t2 in
          let l = union f n1.l l2 in
          let v = match found with None -> n1.v | Some v2 -> f n1.k n1.v v2 in
          rebuild t1 l v (union f n1.r r2)
        else
          let l1, found, r1 = split n2.k t1 in
          let l = union f l1 n2.l in
          match found with
          | Some v1 ->
              let v = f n2.k v1 n2.v in
              let r = union f r1 n2.r in
              if l == l1 && v == v1 && r == r1 then t1 else join l n2.k v r
          | None -> join l n2.k n2.v (union f r1 n2.r)

  (* [t1]'s root once [t2] was found to bind its key to [v2]. *)
  let rebuild_found f t1 l v2 r =
    match t1 with
    | Node n -> (
        match f n.k n.v v2 with None -> concat l r | Some v -> rebuild t1 l v r)
    | Empty -> assert false

  (* Where the roots hold the same key — the common case between a tree
     and its own earlier image — recurse on the children directly
     instead of splitting. *)
  let rec diff f t1 t2 =
    if t1 == t2 then Empty
    else
      match (t1, t2) with
      | Empty, _ -> Empty
      | _, Empty -> t1
      | Node n1, Node n2 when Ord.compare n1.k n2.k = 0 ->
          let l = diff f n1.l n2.l in
          let r = diff f n1.r n2.r in
          rebuild_found f t1 l n2.v r
      | Node n1, _ -> (
          let l2, found, r2 = split n1.k t2 in
          let l = diff f n1.l l2 in
          let r = diff f n1.r r2 in
          match found with
          | None -> rebuild t1 l n1.v r
          | Some v2 -> rebuild_found f t1 l v2 r)

  let of_sorted bindings =
    (* Build the first [n] bindings of [l] with the middle one at the
       root; returns the tree and the rest of [l]. *)
    let rec build n l =
      if n = 0 then (Empty, l)
      else
        let nl = (n - 1) / 2 in
        let left, rest = build nl l in
        match rest with
        | (k, v) :: rest ->
            let right, rest = build (n - 1 - nl) rest in
            (node left k v right, rest)
        | [] -> assert false
    in
    fst (build (List.length bindings) bindings)

  let rec fold f t acc =
    match t with
    | Empty -> acc
    | Node n -> fold f n.r (f n.k n.v (fold f n.l acc))

  let rec for_all p = function
    | Empty -> true
    | Node n -> p n.k n.v && for_all p n.l && for_all p n.r

  let bindings t =
    let rec go t acc =
      match t with Empty -> acc | Node n -> go n.l ((n.k, n.v) :: go n.r acc)
    in
    go t []

  (* An in-order cursor: the next binding, the subtree right of it, and
     the cursor for what follows that subtree. *)
  type 'v cursor = Done | Next of key * 'v * 'v t * 'v cursor

  let rec descend t c =
    match t with Empty -> c | Node n -> descend n.l (Next (n.k, n.v, n.r, c))

  let to_seq t =
    let rec go c () =
      match c with
      | Done -> Seq.Nil
      | Next (k, v, r, c) -> Seq.Cons ((k, v), go (descend r c))
    in
    go (descend t Done)

  (* Once two cursors sit on equal bindings with physically equal right
     subtrees, those subtrees hold the same bindings: skip them. *)
  let compare cmp t1 t2 =
    let rec go c1 c2 =
      match (c1, c2) with
      | Done, Done -> 0
      | Done, _ -> -1
      | _, Done -> 1
      | Next (k1, v1, r1, c1), Next (k2, v2, r2, c2) ->
          let c = Ord.compare k1 k2 in
          if c <> 0 then c
          else
            let c = if v1 == v2 then 0 else cmp v1 v2 in
            if c <> 0 then c
            else if r1 == r2 then go c1 c2
            else go (descend r1 c1) (descend r2 c2)
    in
    if t1 == t2 then 0 else go (descend t1 Done) (descend t2 Done)

  let equal eq t1 t2 =
    let rec go c1 c2 =
      match (c1, c2) with
      | Done, Done -> true
      | Done, _ | _, Done -> false
      | Next (k1, v1, r1, c1), Next (k2, v2, r2, c2) ->
          Ord.compare k1 k2 = 0
          && (v1 == v2 || eq v1 v2)
          && if r1 == r2 then go c1 c2 else go (descend r1 c1) (descend r2 c2)
    in
    t1 == t2 || go (descend t1 Done) (descend t2 Done)
end
