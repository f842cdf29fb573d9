(* Visibility and correctness oracle.

   Every generated operation is state-independent, so its effect is
   [mutate op origin bottom], and an operation is visible at replica [j]
   iff that effect is below [j]'s state.  The oracle is a PROTOCOL
   wrapper: after every [handle] and every [tick] of a local replica it
   checks the sampled outstanding effects of every other origin and
   stamps the ones that became visible.  Effects of one origin reach a
   replica in issue order (deltas travel FIFO along equal-length paths),
   so each origin's samples are checked from the oldest outstanding one
   and the scan stops at the first effect not yet visible; whatever is
   still outstanding when the run ends is swept once more and stamped
   with the end time, or marked unseen.

   The wrapper also records the replica's timeline, (wall, CPU) pairs at
   tick boundaries, from which the parent reads each process's CPU time at
   the cluster's convergence instant. *)

module L = Ledger

module Make
    (C : Crdt_proto.Protocol_intf.CRDT)
    (P : Crdt_proto.Protocol_intf.PROTOCOL with type crdt = C.t) =
struct
  type track = { effects : C.t array; vis : int array; mutable head : int }

  (* tracks.(j).(i): samples of origin [i] as seen by local replica [j]
     (empty for [i = j] and for replicas this process does not host). *)
  let tracks : track array array ref = ref [||]
  let traced = ref false
  let timeline_node = ref 0
  let tl_wall = ref (Array.make 1024 0)
  let tl_cpu = ref (Array.make 1024 0)
  let tl_len = ref 0

  let empty_track = { effects = [||]; vis = [||]; head = 0 }

  (* [effects j i] is the sampled effects of origin [i] local replica [j]
     must see, or [None] when [j] is not hosted here or [i = j]. *)
  let setup ~replicas ~effects =
    tracks :=
      Array.init replicas (fun j ->
          Array.init replicas (fun i ->
              match effects j i with
              | None -> empty_track
              | Some e ->
                  { effects = e; vis = Array.make (Array.length e) (-1); head = 0 }));
    tl_len := 0

  let scan j x now =
    let ts = !tracks.(j) in
    for i = 0 to Array.length ts - 1 do
      let t = ts.(i) in
      let n = Array.length t.effects in
      while t.head < n && C.leq t.effects.(t.head) x do
        t.vis.(t.head) <- now;
        t.head <- t.head + 1
      done
    done

  let record_tick now =
    let len = !tl_len in
    if len = Array.length !tl_wall then begin
      let grow a =
        let b = Array.make (2 * len) 0 in
        Array.blit a 0 b 0 len;
        b
      in
      tl_wall := grow !tl_wall;
      tl_cpu := grow !tl_cpu
    end;
    !tl_wall.(len) <- now;
    !tl_cpu.(len) <- L.cpu_ns ();
    tl_len := len + 1

  (* Free-running loops tick every few microseconds; one timeline point
     per [timeline_gap_ns] is plenty for interpolation and keeps the CPU
     clock reads out of the measured loop. *)
  let timeline_gap_ns = 200_000

  let check_untimed ~tick j x =
    let now = L.now_ns () in
    scan j x now;
    if
      tick && j = !timeline_node
      && (!tl_len = 0 || now - !tl_wall.(!tl_len - 1) >= timeline_gap_ns)
    then record_tick now

  let check ~tick j x =
    if !traced then L.time3 L.bench_oracle (fun tick j x -> check_untimed ~tick j x) tick j x
    else check_untimed ~tick j x

  (* End of run: stamp late detections, leave [-1] for effects that never
     became visible. *)
  let sweep j x =
    let now = L.now_ns () in
    Array.iter
      (fun t ->
        for k = t.head to Array.length t.effects - 1 do
          if C.leq t.effects.(k) x then t.vis.(k) <- now
        done;
        t.head <- Array.length t.effects)
      !tracks.(j)

  let mark_end () = record_tick (L.now_ns ())
  let vis j = Array.map (fun t -> t.vis) !tracks.(j)
  let timeline () = (Array.sub !tl_wall 0 !tl_len, Array.sub !tl_cpu 0 !tl_len)

  module Proto :
    Crdt_proto.Protocol_intf.PROTOCOL
      with type crdt = P.crdt
       and type op = P.op
       and type message = P.message = struct
    type crdt = P.crdt
    type op = P.op
    type message = P.message
    type node = { id : int; inner : P.node }

    let protocol_name = P.protocol_name
    let capabilities = P.capabilities

    let init ~id ~neighbors ~total =
      { id; inner = P.init ~id ~neighbors ~total }

    let local_update n op = { n with inner = P.local_update n.inner op }

    let tick n =
      let inner, out = P.tick n.inner in
      check ~tick:true n.id (P.state inner);
      ({ n with inner }, out)

    let handle n ~src m =
      let inner, out = P.handle n.inner ~src m in
      check ~tick:false n.id (P.state inner);
      ({ n with inner }, out)

    let crash n = { n with inner = P.crash n.inner }
    let recover n = { n with inner = P.recover n.inner }
    let load n s = { n with inner = P.load n.inner s }
    let state n = P.state n.inner
    let payload_weight = P.payload_weight
    let metadata_weight = P.metadata_weight
    let payload_bytes = P.payload_bytes
    let metadata_bytes = P.metadata_bytes
    let message_codec = P.message_codec
    let message_wire_bytes = P.message_wire_bytes
    let memory_weight n = P.memory_weight n.inner
    let memory_bytes n = P.memory_bytes n.inner
    let metadata_memory_bytes n = P.metadata_memory_bytes n.inner
    let work n = P.work n.inner
  end
end
