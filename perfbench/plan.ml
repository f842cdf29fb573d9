(* Workloads and their seeded generators.

   A plan is the complete input of one run, a deterministic function of
   the workload and the seed: the operations each replica issues, in
   order, and the tick (or simulator round) each one is due at.  Every
   sample of a run replays the same plan.  Replica processes receive
   only the plan; the oracle derives effects from it. *)

module Gset = Crdt_core.Gset.Of_int
module Gmap = Crdt_core.Gmap.Versioned

type 'op t = {
  replicas : int;
  ops : 'op array array;  (** per replica, in issue order. *)
  due : int array array;
      (** per replica per op: the tick (round) the op is due at;
          non-decreasing. *)
  sample_every : int;
      (** every [sample_every]-th op of a replica, and its last op, is
          tracked by the visibility oracle. *)
}

let total_ops p = Array.fold_left (fun acc a -> acc + Array.length a) 0 p.ops

let sampled p i k = k mod p.sample_every = 0 || k = Array.length p.ops.(i) - 1

let sample_indices p i =
  let n = Array.length p.ops.(i) in
  Array.of_list (List.filter (sampled p i) (List.init n Fun.id))

let last_due p =
  Array.fold_left
    (fun acc d -> if Array.length d = 0 then acc else max acc d.(Array.length d - 1))
    0 p.due

(* serve-gset-burst: [per_replica] unique elements per replica, op [k]
   due from tick [k] (the closed loop releases them as its window
   allows).  Elements share one magnitude (so their varint size, hence
   every byte count, is the same for every seed) and are disjoint across
   replicas. *)
let gset_burst ~seed ~replicas ~per_replica ~sample_every : Gset.op t =
  let rng = Random.State.make [| seed; 0x6773 |] in
  let base = (1 lsl 40) + (Random.State.int rng (1 lsl 20) lsl 20) in
  {
    replicas;
    ops =
      Array.init replicas (fun i ->
          Array.init per_replica (fun k -> base + (k * replicas) + i));
    due = Array.init replicas (fun _ -> Array.init per_replica Fun.id);
    sample_every;
  }

(* serve-gmap-durable: an open loop of [per_tick] ops per replica per
   tick for [ticks] ticks.  Both replicas raise keys drawn uniformly
   from one shared window, so their writes overlap; values grow with
   the due tick, so each op is an inflation when it is issued. *)
let gmap_open_loop ~seed ~replicas ~ticks ~per_tick ~window ~sample_every :
    Gmap.op t =
  let n = ticks * per_tick in
  {
    replicas;
    ops =
      Array.init replicas (fun i ->
          let rng = Random.State.make [| seed; 0x676d; i |] in
          Array.init n (fun k ->
              Gmap.Apply
                ( Random.State.int rng window,
                  Crdt_core.Version.Raise_to ((k * replicas) + i + 1) )));
    due = Array.init replicas (fun _ -> Array.init n (fun k -> k / per_tick));
    sample_every;
  }

(* sim-mesh-gmap: the Table I GMap K% workload — each of [nodes] nodes
   updates [total_keys·k/100/nodes] keys per round, blocks disjoint
   within a round and rotating across rounds — with keys relabelled by a
   seeded permutation and each update written as the state-independent
   [Raise_to (round + 1)] instead of [Bump]. *)
let sim_mesh_gmap ~seed ~nodes ~rounds ~total_keys ~k ~sample_every : Gmap.op t
    =
  let rng = Random.State.make [| seed; 0x736d |] in
  let perm = Array.init total_keys Fun.id in
  for i = total_keys - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let per_node node =
    List.concat_map
      (fun round ->
        List.map
          (fun key -> (round, Gmap.Apply (perm.(key), Crdt_core.Version.Raise_to (round + 1))))
          (Crdt_engine.Workload.gmap_keys ~total_keys ~k ~nodes ~round ~node))
      (List.init rounds Fun.id)
  in
  let per = Array.init nodes (fun node -> Array.of_list (per_node node)) in
  {
    replicas = nodes;
    ops = Array.map (Array.map snd) per;
    due = Array.map (Array.map fst) per;
    sample_every;
  }
