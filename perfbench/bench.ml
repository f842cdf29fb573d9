(* The repository benchmark: three workloads over the served stack and
   the simulator, end-to-end metrics from untraced samples, a per-layer
   ledger from traced ones.  See README.md for the metric definitions.

     bench.exe run --workload W --seed N --seconds S --trace 0|1
     bench.exe selftest

   [replica] and [sim] are the child processes a sample spawns. *)

module L = Ledger
module Registry = Crdt_engine.Registry
module Trace = Crdt_engine.Trace
module Store = Crdt_store.Store
module Codec = Crdt_wire.Codec
module Rid = Crdt_core.Replica_id

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* A closed loop keeps at most [window] ops of each replica in flight:
   at every tick a replica issues its next ops while it is at most
   [window] ops ahead of every peer, judged by which of their ops its own
   state holds (peers issue symmetric loads, so that is also how far its
   own ops can be from being seen).  [budget] x ops is the tick budget;
   ops still unissued at the last budgeted tick are issued there.  An
   open loop issues ops when they fall due on the tick clock. *)
type loop = Closed of { window : int; budget : int } | Open

(* Open loop: ticks a replica may spend waiting for its peers before its
   schedule starts (they come out of the op-tick budget). *)
let startup_ticks = 40

type kind =
  | Served of {
      tick_ms : int;  (** 0: free-running ticks. *)
      loop : loop;
      durable : (Store.fsync_policy * int) option;
          (** fsync policy and checkpoint interval (in deltas). *)
    }
  | Simulated of { rounds : int }

module type SPEC = sig
  module C : Crdt_proto.Protocol_intf.CRDT

  val name : string
  val protocol : string
  val kind : kind
  val describe : string
  val plan : seed:int -> C.op Plan.t
end

module Gset_burst = struct
  module C = Plan.Gset

  let name = "serve-gset-burst"
  let protocol = "delta-bp+rr"
  let window = 256
  let kind = Served { tick_ms = 0; loop = Closed { window; budget = 4 }; durable = None }
  let per_replica = 30_000

  let describe =
    Printf.sprintf
      "closed loop, at most %d ops per replica in flight: 2 replica processes \
       (1 thread, 1 connection each) over loopback unix sockets, no injected \
       delay; %s; %d unique gset adds per replica on free-running ticks \
       (tick_ms=0); no store"
      window protocol per_replica

  let plan ~seed =
    Plan.gset_burst ~seed ~replicas:2 ~per_replica ~sample_every:8
end

module Gmap_durable = struct
  module C = Plan.Gmap

  let name = "serve-gmap-durable"
  let protocol = "conflict-sync"

  (* The offered rate is about 2% of the measured capacity (about 2000
     ops per replica per tick; README.md gives the measurement), so the
     store's per-tick costs are about a quarter of the replicas' CPU and
     host noise cannot push the loop into saturation.  With 1024 keys a
     tick's ops touch about 4% of them (few raises coalesce, so bytes per
     op stay steady) and each key is raised about 4 times by each
     replica (their writes overlap).  ops_per_s is fixed by this rate. *)
  let tick_ms = 5
  let per_tick = 40
  let keys = 1024
  let ticks = 100
  let fsync_s = 0.02
  let fsync = Store.Interval fsync_s
  let checkpoint_every = 32

  let kind =
    Served { tick_ms; loop = Open; durable = Some (fsync, checkpoint_every) }

  let describe =
    Printf.sprintf
      "open loop: 2 replica processes over loopback unix sockets, no injected \
       delay; %s; %d Raise_to ops per replica per %d ms tick (%d ops/s per \
       replica) for %d ticks over a shared %d-key window; store \
       fsync=interval:%g, checkpoint every %d deltas"
      protocol per_tick tick_ms
      (per_tick * 1000 / tick_ms)
      ticks keys
      fsync_s checkpoint_every

  let plan ~seed =
    Plan.gmap_open_loop ~seed ~replicas:2 ~ticks ~per_tick ~window:keys
      ~sample_every:4
end

module Sim_mesh = struct
  module C = Plan.Gmap

  let name = "sim-mesh-gmap"
  let protocol = "delta-bp+rr"
  let rounds = 100
  let kind = Simulated { rounds }

  let describe =
    Printf.sprintf
      "simulator (Runner, domains=1, exact bytes), 15-node partial mesh, %s; \
       Table I GMap K=10%% over 1000 keys for %d rounds; no sockets, no store"
      protocol rounds

  let plan ~seed =
    Plan.sim_mesh_gmap ~seed ~nodes:15 ~rounds ~total_keys:1000 ~k:10
      ~sample_every:2
end

let workloads : (module SPEC) list =
  [ (module Gset_burst); (module Gmap_durable); (module Sim_mesh) ]

let find_workload name =
  match
    List.find_opt (fun (module S : SPEC) -> String.equal S.name name) workloads
  with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" name
        (String.concat ", " (List.map (fun (module S : SPEC) -> S.name) workloads));
      exit 2

(* ------------------------------------------------------------------ *)
(* What a child process reports                                        *)

type replica_out = {
  id : int;
  final : string;  (** codec-encoded final state. *)
  starts : int array;  (** start time of each own sampled op, ns. *)
  vis : int array array;
      (** per origin: when each of its sampled ops became visible here
          (ns), [-1] if never. *)
  first_op : int;
  late : int array;  (** open loop: issue minus due time per op, ns. *)
  forced : int;  (** closed loop: ops issued at the last budgeted tick. *)
}

type proc_out = {
  reps : replica_out array;
  ready : int;  (** first op tick, ns. *)
  setup_start : int;  (** simulator: instantiation start, ns. *)
  heap_words : int;
      (** major-heap growth over the serve loop or simulator run: peak
          heap minus the heap just before it, so the plan, the sampled
          effects and the oracle's tables, all built before, are left
          out. *)
  tl_wall : int array;
  tl_cpu : int array;
  cpu_first : int;
  wire : int;
  sync_rounds : int;
  digest : int;
  writes : int;
  tick_p99_us : float;
  rounds : int;
  tail_rounds : int;
  stop : string;
  eng : int array;  (** ticks, sends, recvs, delivers. *)
  ledger : L.snapshot option;
  wall_ns : int;  (** serve loop / simulator run. *)
}

let write_marshal path v =
  let oc = open_out_bin path in
  Marshal.to_channel oc v [];
  close_out oc

let read_marshal path =
  let ic = open_in_bin path in
  let v = Marshal.from_channel ic in
  close_in ic;
  v

(* The engine layer's counting Trace sink. *)
let engine_sink eng =
  {
    Trace.null with
    tick = (fun ~node:_ ~round:_ -> eng.(0) <- eng.(0) + 1);
    send =
      (fun ~src:_ ~dest:_ ~round:_ ~weight:_ ~metadata:_ ~payload_bytes:_
           ~metadata_bytes:_ ~wire_bytes:_ -> eng.(1) <- eng.(1) + 1);
    recv =
      (fun ~node:_ ~src:_ ~round:_ ~weight:_ ~metadata:_ ~payload_bytes:_
           ~metadata_bytes:_ ~wire_bytes:_ -> eng.(2) <- eng.(2) + 1);
    deliver = (fun ~node:_ ~src:_ ~round:_ -> eng.(3) <- eng.(3) + 1);
  }

let sock dir i = Filename.concat dir (Printf.sprintf "n%d.sock" i)
let data_dir dir i = Filename.concat dir (Printf.sprintf "data%d" i)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

module Bench (S : SPEC) = struct
  module C = S.C

  type crdt = (module Crdt_proto.Protocol_intf.CRDT with type t = C.t and type op = C.op)

  type proto =
    (module Crdt_proto.Protocol_intf.PROTOCOL with type crdt = C.t and type op = C.op)

  (* The protocol stack a child runs: the timed interposers on core,
     proto and wire in traced runs, the bare modules otherwise. *)
  let stack ~traced : crdt * proto =
    let crdt : crdt = if traced then (module Timed.Crdt (C)) else (module C) in
    let module P = (val Registry.instantiate (Registry.find_protocol S.protocol) crdt) in
    let proto : proto = if traced then (module Timed.Proto (P)) else (module P) in
    (crdt, proto)

  let effect_of i op = C.mutate op (Rid.of_int i) C.bottom

  let sampled_effects (plan : C.op Plan.t) i =
    Array.map (fun k -> effect_of i plan.ops.(i).(k)) (Plan.sample_indices plan i)

  let encode x = Codec.encode_to_string C.codec x

  let decode what s =
    match Codec.decode_string C.codec s with
    | Ok v -> v
    | Error e -> failwith (what ^ ": " ^ Codec.error_to_string e)

  (* Op release for one replica: ops due at or before [limit] leave in
     issue order; sampled ones get their start time recorded. *)
  type feed = {
    plan : C.op Plan.t;
    me : int;
    mutable cursor : int;
    sample_pos : int array;  (** op index -> sample slot, or -1. *)
    starts : int array;
    late : int array;  (** open loop: issue minus due time per op, ns. *)
    mutable nlate : int;
    mutable forced : int;  (** closed loop: ops issued at the last budgeted tick. *)
  }

  let feed plan me =
    let idx = Plan.sample_indices plan me in
    let pos = Array.make (Array.length plan.Plan.ops.(me)) (-1) in
    Array.iteri (fun s k -> pos.(k) <- s) idx;
    {
      plan;
      me;
      cursor = 0;
      sample_pos = pos;
      starts = Array.make (Array.length idx) 0;
      late = Array.make (Array.length pos) 0;
      nlate = 0;
      forced = 0;
    }

  let release f ~limit ~start_of =
    let ops = f.plan.Plan.ops.(f.me) and due = f.plan.Plan.due.(f.me) in
    let acc = ref [] in
    while f.cursor < Array.length ops && due.(f.cursor) <= limit do
      let k = f.cursor in
      let start = start_of due.(k) in
      let s = f.sample_pos.(k) in
      if s >= 0 then f.starts.(s) <- start;
      acc := ops.(k) :: !acc;
      f.cursor <- k + 1
    done;
    List.rev !acc

  (* ---------------- replica process (served workloads) ------------ *)

  let go_file dir i = Filename.concat dir (Printf.sprintf "go%d" i)
  let announce ~dir id = close_out (open_out (go_file dir id))

  let all_announced ~dir replicas =
    List.for_all (fun j -> Sys.file_exists (go_file dir j)) (List.init replicas Fun.id)

  let replica_child ~plan_file ~id ~out ~dir ~traced =
    ignore (L.pin id);
    let plan : C.op Plan.t = read_marshal plan_file in
    let tick_ms, loop, durable =
      match S.kind with
      | Served { tick_ms; loop; durable } -> (tick_ms, loop, durable)
      | Simulated _ -> invalid_arg "replica: not a served workload"
    in
    let effects =
      Array.init plan.replicas (fun i ->
          if i = id then [||] else sampled_effects plan i)
    in
    let (module Ct), (module P) = stack ~traced in
    let module O = Oracle.Make (C) (P) in
    let module R = Crdt_net.Runtime.Make (O.Proto) in
    O.traced := traced;
    O.timeline_node := id;
    O.setup ~replicas:plan.replicas ~effects:(fun j i ->
        if j = id && i <> id then Some effects.(i) else None);
    let store =
      Option.map
        (fun (fsync, every) ->
          (fst (Store.open_ ~fsync ~dir:(data_dir dir id) ()), every))
        durable
    in
    (* The persist callback: the structural delta against the last image
       written, appended to the log; a checkpoint every [every] deltas.
       A copy of the persist sink of [crdtsync serve] (bin/crdtsync.ml,
       lines 608-631), which this one must track: the store.* figures time
       this copy, not serve's. *)
    let persist =
      Option.map
        (fun (st, every) ->
          let last = ref C.bottom in
          let append state =
            let d = Ct.delta state !last in
            if not (C.is_bottom d) then begin
              let body = encode d in
              L.store_bytes := !L.store_bytes + String.length body;
              Store.append_delta st body;
              if Store.deltas_since_checkpoint st >= every then
                if traced then
                  L.time2 L.store_checkpoint Store.checkpoint st (encode state)
                else Store.checkpoint st (encode state)
            end;
            last := state
          in
          if traced then fun state -> L.time1 L.store_append append state
          else append)
        store
    in
    let f = feed plan id in
    let ops_ticks =
      match loop with
      | Open -> Plan.last_due plan + 1 + startup_ticks
      | Closed { budget; _ } -> budget * (Plan.last_due plan + 1)
    in
    let peers_ids = List.filter (fun j -> j <> id) (List.init plan.replicas Fun.id) in
    let window_open window state k =
      k < window
      || List.for_all
           (fun j ->
             let ops_j = plan.ops.(j) in
             Array.length ops_j = 0
             || C.leq (effect_of j ops_j.(min (k - window) (Array.length ops_j - 1))) state)
           peers_ids
    in
    let tick_ns = tick_ms * 1_000_000 in
    let t0 = ref 0 and cpu_first = ref 0 in
    (* The load starts once every replica has reached its first tick, so
       a peer still in its dial backoff never finds a backlog waiting.
       The closed loop waits for that inside tick 0 (the benchmark's own
       time, so a traced run books it to [bench.oracle], not to the net
       residual); the open loop keeps ticking on its own clock and starts
       its schedule at the first tick after it. *)
    let start_tick = ref (-1) in
    let barrier () =
      while not (all_announced ~dir plan.replicas) do
        Unix.sleepf 50e-6
      done
    in
    let ops ~tick state =
      if tick = 0 then announce ~dir id;
      if !start_tick < 0 then begin
        match loop with
        | Closed _ ->
            if traced then L.time1 L.bench_oracle barrier () else barrier ();
            start_tick := tick
        | Open -> if all_announced ~dir plan.replicas then start_tick := tick
      end;
      if !start_tick < 0 then []
      else begin
        let now = L.now_ns () in
        if tick = !start_tick then begin
          t0 := now;
          cpu_first := L.cpu_ns ()
        end;
        let last = tick >= ops_ticks - 1 in
        match loop with
        | Open ->
            let due d = !t0 + (d * tick_ns) in
            let limit =
              if last then max_int
              else max (tick - !start_tick) ((now - !t0) / tick_ns)
            in
            let before = f.cursor in
            let batch = release f ~limit ~start_of:(fun d -> min now (due d)) in
            for k = before to f.cursor - 1 do
              f.late.(f.nlate) <- max 0 (now - due plan.due.(id).(k));
              f.nlate <- f.nlate + 1
            done;
            batch
        | Closed { window; _ } ->
            let n = Array.length plan.ops.(id) in
            let limit =
              if last then begin
                f.forced <- n - f.cursor;
                n
              end
              else begin
                let k = ref f.cursor in
                let opens k =
                  if traced then L.time3 L.bench_oracle window_open window state k
                  else window_open window state k
                in
                while !k < n && opens !k do
                  incr k
                done;
                !k
              end
            in
            release f ~limit:(limit - 1) ~start_of:(fun _ -> now)
      end
    in
    let peers =
      List.filter_map
        (fun j -> if j = id then None else Some (j, Crdt_net.Addr.Unix_sock (sock dir j)))
        (List.init plan.replicas Fun.id)
    in
    let cfg =
      {
        (Crdt_net.Runtime.default_config ~id
           ~listen:(Crdt_net.Addr.Unix_sock (sock dir id))
           ~peers ~total:plan.replicas)
        with
        tick_ms;
        ops_ticks;
        max_ticks = 10_000_000;
        max_wall_s = 60.;
        evloop = `Auto;
      }
    in
    let eng = Array.make 4 0 in
    let sink = if traced then Some (engine_sink eng) else None in
    if traced then L.reset ();
    let heap_base = (Gc.quick_stat ()).Gc.heap_words in
    let res =
      R.serve ?sink ?persist ~equal:Ct.equal
        ~digest:(fun x -> Digest.string (encode x))
        cfg ~ops
    in
    O.mark_end ();
    let final = res.R.state in
    O.sweep id final;
    Option.iter (fun (st, _) -> Store.close st) store;
    let tl_wall, tl_cpu = O.timeline () in
    write_marshal out
      {
        reps =
          [|
            {
              id;
              final = encode final;
              starts = f.starts;
              vis = O.vis id;
              first_op = !t0;
              late = Array.sub f.late 0 f.nlate;
              forced = f.forced;
            };
          |];
        ready = !t0;
        setup_start = 0;
        heap_words = (Gc.quick_stat ()).Gc.top_heap_words - heap_base;
        tl_wall;
        tl_cpu;
        cpu_first = !cpu_first;
        wire = res.R.counters.Trace.wire_bytes;
        sync_rounds = res.R.counters.Trace.sync_rounds;
        digest = res.R.counters.Trace.digest_bytes;
        writes = res.R.writes;
        tick_p99_us = res.R.tick_p99_us;
        rounds = res.R.ticks;
        tail_rounds = 0;
        stop = Crdt_net.Runtime.stop_reason_name res.R.stop;
        eng;
        ledger = (if traced then Some (L.snapshot ()) else None);
        wall_ns = int_of_float (res.R.wall_s *. 1e9);
      }

  (* ---------------- simulator process ----------------------------- *)

  let sim_child ~plan_file ~out ~traced =
    let plan : C.op Plan.t = read_marshal plan_file in
    let rounds =
      match S.kind with
      | Simulated { rounds } -> rounds
      | Served _ -> invalid_arg "sim: not a simulated workload"
    in
    let n = plan.replicas in
    let effects = Array.init n (sampled_effects plan) in
    let feeds = Array.init n (feed plan) in
    (* Set-up: instantiation of the stack and the simulator up to the
       first op. *)
    let setup_start = L.now_ns () in
    let crdt, proto = stack ~traced in
    let module Ct = (val crdt) in
    let module P = (val proto) in
    let module O = Oracle.Make (C) (P) in
    let module R = Crdt_sim.Runner.Make (O.Proto) in
    O.traced := traced;
    O.timeline_node := 0;
    O.setup ~replicas:n ~effects:(fun j i -> if i = j then None else Some effects.(i));
    let topology = Crdt_sim.Topology.partial_mesh n in
    let ready = ref 0 and cpu_first = ref 0 in
    let ops ~round ~node _ =
      let now = L.now_ns () in
      if !ready = 0 then begin
        ready := now;
        cpu_first := L.cpu_ns ()
      end;
      release feeds.(node) ~limit:round ~start_of:(fun _ -> now)
    in
    let eng = Array.make 4 0 in
    let sink = if traced then Some (engine_sink eng) else None in
    if traced then L.reset ();
    let heap_base = (Gc.quick_stat ()).Gc.heap_words in
    let t_run = L.now_ns () in
    let res =
      R.run ~bytes:Crdt_sim.Metrics.Exact ~domains:1 ?sink ~equal:Ct.equal
        ~topology ~rounds ~ops ()
    in
    let wall_ns = L.now_ns () - t_run in
    O.mark_end ();
    Array.iteri (fun j x -> O.sweep j x) res.R.finals;
    let summary = R.full_summary res in
    let tl_wall, tl_cpu = O.timeline () in
    write_marshal out
      {
        reps =
          Array.init n (fun j ->
              {
                id = j;
                final = encode res.R.finals.(j);
                starts = feeds.(j).starts;
                vis = O.vis j;
                first_op = !ready;
                late = [||];
                forced = 0;
              });
        ready = !ready;
        setup_start;
        heap_words = (Gc.quick_stat ()).Gc.top_heap_words - heap_base;
        tl_wall;
        tl_cpu;
        cpu_first = !cpu_first;
        wire = summary.Crdt_sim.Metrics.total_wire_bytes;
        sync_rounds = summary.Crdt_sim.Metrics.total_sync_rounds;
        digest = summary.Crdt_sim.Metrics.total_digest_bytes;
        writes = 0;
        tick_p99_us = 0.;
        rounds = Array.length res.R.rounds + Array.length res.R.quiesce_rounds;
        tail_rounds = Array.length res.R.quiesce_rounds;
        stop = (if res.R.converged then "clean" else "quiesce_limit");
        eng;
        ledger = (if traced then Some (L.snapshot ()) else None);
        wall_ns;
      }

  (* ---------------- parent: one sample ---------------------------- *)

  type sample = {
    traced : bool;
    procs : proc_out array;
    t_spawn : int;
    finals : C.t array;
    recovered : C.t array;
    recov_ns : int array;
    recov_records : int;
    recov_bytes : int;
  }

  let rec waitpid_retry pid =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

  let spawn args =
    let exe = Sys.executable_name in
    (* Children print nothing on stdout: the result line stays last. *)
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stderr
      Unix.stderr

  let wait_ok what pid =
    match waitpid_retry pid with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED c -> failwith (Printf.sprintf "%s exited with code %d" what c)
    | Unix.WSIGNALED s | Unix.WSTOPPED s ->
        failwith (Printf.sprintf "%s killed by signal %d" what s)

  (* Reopen a data dir, decode and join: a copy of the boot path of
     [crdtsync serve --data-dir] (bin/crdtsync.ml, lines 567-587), which
     this one must track: recovery_s times this copy, not serve's. *)
  let recover_once dir =
    let t0 = L.now_ns () in
    let st, r = Store.open_ ~dir () in
    let boot =
      List.fold_left
        (fun acc d -> C.join acc (decode "delta record" d))
        (match r.Store.checkpoint with
        | Some c -> decode "checkpoint record" c
        | None -> C.bottom)
        r.Store.deltas
    in
    let dt = L.now_ns () - t0 in
    Store.close st;
    (boot, dt, r.Store.replayed_records, r.Store.replayed_bytes + r.Store.checkpoint_bytes)

  (* The fastest of [recoveries] reopens: one reopen is under a
     millisecond of file-system calls on the durable workload, so a
     single timing is mostly scheduling noise. *)
  let recoveries = 9

  let recover dir =
    let runs = List.init recoveries (fun _ -> recover_once dir) in
    let fastest = List.fold_left (fun acc (_, t, _, _) -> min acc t) max_int runs in
    let boot, _, records, bytes = List.hd runs in
    (boot, fastest, records, bytes)

  (* Store-less workloads write one checkpoint of each final state and
     time the same reopen path. *)
  let checkpoint_probe dir x =
    rm_rf dir;
    let st, _ = Store.open_ ~dir () in
    Store.checkpoint st (encode x);
    Store.close st

  let sample ~dir ~plan_file ~(plan : C.op Plan.t) ~traced ~inject =
    let tflag = if traced then [ "--traced" ] else [] in
    let iflag = match inject with Some s -> [ "--inject"; s ] | None -> [] in
    let out i = Filename.concat dir (Printf.sprintf "out%d" i) in
    let t_spawn = L.now_ns () in
    let procs =
      match S.kind with
      | Served _ ->
          for i = 0 to plan.replicas - 1 do
            rm_rf (data_dir dir i);
            rm_rf (go_file dir i)
          done;
          let pids =
            List.init plan.replicas (fun i ->
                spawn
                  ([ "replica"; "--workload"; S.name; "--plan"; plan_file; "--id";
                     string_of_int i; "--out"; out i; "--dir"; dir ]
                  @ tflag @ iflag))
          in
          List.iteri (fun i pid -> wait_ok (Printf.sprintf "replica %d" i) pid) pids;
          Array.init plan.replicas (fun i -> (read_marshal (out i) : proc_out))
      | Simulated _ ->
          let pid =
            spawn
              ([ "sim"; "--workload"; S.name; "--plan"; plan_file; "--out"; out 0 ]
              @ tflag @ iflag)
          in
          wait_ok "simulator" pid;
          [| (read_marshal (out 0) : proc_out) |]
    in
    let reps = Array.concat (Array.to_list (Array.map (fun p -> p.reps) procs)) in
    Array.sort (fun a b -> compare a.id b.id) reps;
    let finals = Array.map (fun r -> decode "final state" r.final) reps in
    let rec_dir i =
      match S.kind with
      | Served { durable = Some _; _ } -> data_dir dir i
      | _ ->
          let d = Filename.concat dir (Printf.sprintf "probe%d" i) in
          checkpoint_probe d finals.(i);
          d
    in
    let recs = Array.mapi (fun i _ -> recover (rec_dir i)) finals in
    {
      traced;
      procs;
      t_spawn;
      finals;
      recovered = Array.map (fun (b, _, _, _) -> b) recs;
      recov_ns = Array.map (fun (_, t, _, _) -> t) recs;
      recov_records = Array.fold_left (fun a (_, _, n, _) -> a + n) 0 recs;
      recov_bytes = Array.fold_left (fun a (_, _, _, b) -> a + b) 0 recs;
    }

  (* ---------------- parent: what a sample measured ---------------- *)

  type measured = {
    ops : int;
    failed : int;
    checks_ok : bool;
    window_ns : int;  (** first op tick to convergence. *)
    vis_ns : int list;
    cpu_ns : int;
    wire_total : int;
    heap_peak : int;
    setup_ns : int;
    recovery_ns : int;
    late_ns : int list;
    forced : int;
    stops : string list;
  }

  (* CPU time of a process at wall time [t], interpolated on its
     timeline. *)
  let cpu_at p t =
    let w = p.tl_wall and c = p.tl_cpu in
    let n = Array.length w in
    if n = 0 || t <= w.(0) then p.cpu_first
    else if t >= w.(n - 1) then c.(n - 1)
    else begin
      let i = ref 0 in
      while w.(!i + 1) <= t do
        incr i
      done;
      let i = !i in
      let span = w.(i + 1) - w.(i) in
      if span = 0 then c.(i)
      else c.(i) + ((c.(i + 1) - c.(i)) * (t - w.(i)) / span)
    end

  let measure ~(plan : C.op Plan.t) ~effects s =
    let reps = Array.concat (Array.to_list (Array.map (fun p -> p.reps) s.procs)) in
    Array.sort (fun a b -> compare a.id b.id) reps;
    let n = plan.replicas in
    let ops = Plan.total_ops plan in
    (* Correctness: every op's effect in every final and every recovered
       state. *)
    let failed = ref 0 in
    Array.iter
      (Array.iter (fun e ->
           if
             not
               (Array.for_all (C.leq e) s.finals
               && Array.for_all (C.leq e) s.recovered)
           then incr failed))
      effects;
    let checks_ok =
      Array.for_all2 C.equal s.finals s.recovered
      && Array.for_all (C.equal s.finals.(0)) s.finals
    in
    let t_first =
      Array.fold_left (fun acc r -> min acc r.first_op) max_int reps
    in
    (* Convergence: every replica's last op visible at every replica. *)
    let t_conv = ref t_first in
    let vis = ref [] in
    for i = 0 to n - 1 do
      let slots = Array.length reps.(i).starts in
      for sl = 0 to slots - 1 do
        let seen = ref 0 and all = ref true in
        for j = 0 to n - 1 do
          if j <> i then begin
            let v = reps.(j).vis.(i).(sl) in
            if v < 0 then all := false else seen := max !seen v
          end
        done;
        if !all then begin
          vis := max 0 (!seen - reps.(i).starts.(sl)) :: !vis;
          if sl = slots - 1 then t_conv := max !t_conv !seen
        end
      done
    done;
    let t_conv = !t_conv in
    {
      ops;
      failed = !failed;
      checks_ok;
      window_ns = t_conv - t_first;
      vis_ns = !vis;
      cpu_ns =
        Array.fold_left (fun acc p -> acc + (cpu_at p t_conv - p.cpu_first)) 0 s.procs;
      wire_total = Array.fold_left (fun acc (p : proc_out) -> acc + p.wire) 0 s.procs;
      heap_peak = Array.fold_left (fun acc p -> max acc p.heap_words) 0 s.procs;
      setup_ns =
        (match S.kind with
        | Served _ ->
            Array.fold_left (fun acc p -> max acc p.ready) 0 s.procs - s.t_spawn
        | Simulated _ -> s.procs.(0).ready - s.procs.(0).setup_start);
      recovery_ns = Array.fold_left max 0 s.recov_ns;
      late_ns =
        Array.fold_left (fun acc (r : replica_out) -> Array.to_list r.late @ acc) [] reps;
      forced = Array.fold_left (fun acc (r : replica_out) -> acc + r.forced) 0 reps;
      stops = Array.to_list (Array.map (fun p -> p.stop) s.procs);
    }

  (* ---------------- parent: the per-layer ledger ------------------ *)

  let per_layer_names =
    [
      "core.join.calls"; "core.join.self_us"; "core.delta.calls"; "core.delta.self_us";
      "core.leq.calls"; "core.leq.self_us"; "core.equal.calls"; "core.equal.self_us";
      "core.mutate.calls"; "core.mutate.self_us"; "core.decompose.calls";
      "core.decompose.self_us"; "core.share";
      "proto.tick.calls"; "proto.tick.self_us"; "proto.handle.calls";
      "proto.handle.self_us"; "proto.local_update.calls"; "proto.local_update.self_us";
      "proto.msgs_per_tick"; "proto.share";
      "wire.encode.calls"; "wire.encode.self_us"; "wire.decode.calls";
      "wire.decode.self_us"; "wire.size.calls"; "wire.size.self_us";
      "wire.encode.bytes"; "wire.share";
      "engine.ticks"; "engine.sends"; "engine.recvs"; "engine.delivers";
      "engine.self_us"; "engine.share";
      "net.writes"; "net.msgs_per_write"; "net.tick_p99_us"; "net.residual_us"; "net.share";
      "store.append.calls"; "store.append.self_us"; "store.append.p99_us";
      "store.append.bytes"; "store.checkpoint.calls"; "store.checkpoint.self_us";
      "store.recover.us"; "store.recover.records"; "store.recover.bytes"; "store.share";
      "digest.sync_rounds"; "digest.bytes"; "digest.bytes_per_op";
      "sim.rounds"; "sim.round_us"; "sim.tail_rounds";
      "bench.self_us"; "bench.share";
    ]

  let percentile_int l p =
    match l with
    | [] -> 0
    | _ ->
        let a = Array.of_list l in
        Array.sort compare a;
        let n = Array.length a in
        a.(min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float n)) - 1 |> max 0))

  (* One traced sample's ledger: layer values keyed by metric name, and
     whether self times plus the residual account for the traced wall
     time. *)
  let ledger_of (m : measured) s =
    let tbl = Hashtbl.create 64 in
    let add k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
    let top = ref 0 and wall = ref 0 and msgs = ref 0 and self_total = ref 0 in
    let appends = ref [] in
    Array.iter
      (fun p ->
        wall := !wall + p.wall_ns;
        match p.ledger with
        | None -> ()
        | Some lg ->
            top := !top + lg.L.top;
            msgs := !msgs + lg.L.msgs;
            add "wire.encode.bytes" (float lg.L.enc_bytes);
            add "store.append.bytes" (float lg.L.st_bytes);
            appends := Array.to_list lg.L.append_ns @ !appends;
            List.iter
              (fun (name, calls, self) ->
                self_total := !self_total + self;
                add (name ^ ".calls") (float calls);
                add (name ^ ".self_us") (float self /. 1e3);
                add (L.layer_of name ^ ".layer_ns") (float self))
              lg.L.entries)
      s.procs;
    let get k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
    let wall_f = float !wall in
    let residual = wall_f -. float !self_total in
    let served = match S.kind with Served _ -> true | Simulated _ -> false in
    let share layer = get (layer ^ ".layer_ns") /. wall_f in
    let sum f = Array.fold_left (fun acc p -> acc + f p) 0 s.procs in
    let eng i = float (sum (fun p -> p.eng.(i))) in
    let set k v = Hashtbl.replace tbl k v in
    set "core.share" (share "core");
    set "proto.share" (share "proto");
    set "wire.share" (share "wire");
    set "store.share" (share "store");
    set "bench.share" (share "bench");
    set "bench.self_us" (get "bench.oracle.self_us");
    set "proto.msgs_per_tick"
      (if get "proto.tick.calls" > 0. then float !msgs /. get "proto.tick.calls" else 0.);
    set "engine.ticks" (eng 0);
    set "engine.sends" (eng 1);
    set "engine.recvs" (eng 2);
    set "engine.delivers" (eng 3);
    set "engine.self_us" (if served then 0. else residual /. 1e3);
    set "engine.share" (if served then 0. else residual /. wall_f);
    let writes = sum (fun p -> p.writes) in
    set "net.writes" (float writes);
    set "net.msgs_per_write" (if writes > 0 then eng 1 /. float writes else 0.);
    set "net.tick_p99_us" (Array.fold_left (fun acc p -> Float.max acc p.tick_p99_us) 0. s.procs);
    set "net.residual_us" (if served then residual /. 1e3 else 0.);
    set "net.share" (if served then residual /. wall_f else 0.);
    set "store.append.p99_us" (float (percentile_int !appends 99.) /. 1e3);
    set "store.recover.us" (float (Array.fold_left max 0 s.recov_ns) /. 1e3);
    set "store.recover.records" (float s.recov_records);
    set "store.recover.bytes" (float s.recov_bytes);
    let sync_rounds = sum (fun p -> p.sync_rounds) and digest = sum (fun p -> p.digest) in
    set "digest.sync_rounds" (float sync_rounds);
    set "digest.bytes" (float digest);
    set "digest.bytes_per_op" (float digest /. float m.ops);
    let rounds = sum (fun p -> p.rounds) in
    set "sim.rounds" (if served then 0. else float rounds);
    set "sim.round_us" (if served then 0. else wall_f /. 1e3 /. float (max 1 rounds));
    set "sim.tail_rounds" (if served then 0. else float (sum (fun p -> p.tail_rounds)));
    (* The nesting invariant: self times telescope to the outermost
       spans' durations, and those fit inside the wall time. *)
    let accounted = !self_total = !top && residual >= 0. in
    (List.map (fun k -> (k, get k)) per_layer_names, accounted, residual /. wall_f)

  (* ---------------- parent: a run --------------------------------- *)

  let median l =
    match List.sort compare l with
    | [] -> 0.
    | sorted ->
        let a = Array.of_list sorted in
        let n = Array.length a in
        if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

  let mean l = List.fold_left ( +. ) 0. l /. float (max 1 (List.length l))

  let word_bytes = float (Sys.word_size / 8)

  (* [samples] holds at least [min_samples] of each kind asked for and
     keeps sampling until [seconds] have passed. *)
  let collect ~seed ~seconds ~trace ~inject ~min_samples =
    let plan = S.plan ~seed in
    let dir = Printf.sprintf ".perfbench/r%d" (Unix.getpid ()) in
    rm_rf dir;
    (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Unix.mkdir dir 0o755;
    let plan_file = Filename.concat dir "plan" in
    write_marshal plan_file plan;
    let effects =
      Array.init plan.replicas (fun i -> Array.map (effect_of i) plan.ops.(i))
    in
    let one traced =
      let s = sample ~dir ~plan_file ~plan ~traced ~inject in
      (s, measure ~plan ~effects s)
    in
    Fun.protect
      ~finally:(fun () ->
        rm_rf dir;
        try Unix.rmdir ".perfbench" with Unix.Unix_error _ -> ())
      (fun () ->
        (* Warm-up: checked, not measured. *)
        let warm = one false in
        let t0 = L.now_ns () in
        let acc = ref [] and k = ref 0 in
        let count traced = List.length (List.filter (fun (s, _) -> s.traced = traced) !acc) in
        while
          L.now_ns () - t0 < int_of_float (seconds *. 1e9)
          || (trace <> `Traced_only && count false < min_samples)
          || (trace <> `Untraced && count true < min_samples)
        do
          let traced =
            match trace with
            | `Untraced -> false
            | `Traced_only -> true
            | `Both -> !k mod 2 = 1
          in
          acc := one traced :: !acc;
          incr k
        done;
        (plan, warm, List.rev !acc))

  type result = {
    correct : bool;
    attempted : int;
    failed : int;
    metrics : (string * float * string) list;
    notes : string list;
  }

  let run ~seed ~seconds ~trace =
    let plan, warm, samples =
      collect ~seed ~seconds ~trace:(if trace then `Both else `Untraced) ~inject:None
        ~min_samples:3
    in
    let all = warm :: samples in
    let untraced = List.filter_map (fun (s, m) -> if s.traced then None else Some m) samples in
    let traced = List.filter (fun (s, _) -> s.traced) samples in
    let attempted = List.fold_left (fun a (_, (m : measured)) -> a + m.ops) 0 all in
    let failed = List.fold_left (fun a (_, (m : measured)) -> a + m.failed) 0 all in
    let checks = List.for_all (fun (_, (m : measured)) -> m.checks_ok && m.window_ns > 0) all in
    let stops =
      List.sort_uniq compare (List.concat_map (fun (_, m) -> m.stops) all)
    in
    let vis = List.concat_map (fun m -> m.vis_ns) untraced in
    let ms ns = float ns /. 1e6 in
    (* Median over untraced samples of each sample's percentile. *)
    let visibility p =
      median (List.map (fun m -> ms (percentile_int m.vis_ns p)) untraced)
    in
    let per_op f = List.map (fun m -> f m /. float m.ops) untraced in
    let notes =
      [
        Printf.sprintf "host: cores=%d ocaml=%s os=%s word=%d"
          (Domain.recommended_domain_count ()) Sys.ocaml_version Sys.os_type Sys.word_size;
        Printf.sprintf "workload %s (seed %d): %s" S.name seed S.describe;
        Printf.sprintf
          "samples: %d untraced + %d traced (+1 warm-up), %d ops each, %d visibility samples; stop reasons: %s; closed-loop ops forced at the last budgeted tick: %d"
          (List.length untraced) (List.length traced) (Plan.total_ops plan)
          (List.length vis) (String.concat "," stops)
          (List.fold_left (fun a (_, (m : measured)) -> a + m.forced) 0 all);
        Printf.sprintf "failed ops: %d of %d attempted (failed_ops_ratio %g)" failed
          attempted
          (float failed /. float attempted);
      ]
    in
    if not trace then
      let metrics =
        [
          ("ops_per_s", median (List.map (fun m -> float m.ops /. (float m.window_ns /. 1e9)) untraced), "1/s");
          ("wire_bytes_per_op", median (per_op (fun m -> float m.wire_total)), "B");
          ("cpu_us_per_op", median (per_op (fun m -> float m.cpu_ns /. 1e3)), "us");
          ("heap_peak_mb", median (List.map (fun m -> float m.heap_peak *. word_bytes /. 1e6) untraced), "MB");
          ("setup_s", median (List.map (fun m -> float m.setup_ns /. 1e9) untraced), "s");
          ("recovery_s", median (List.map (fun m -> float m.recovery_ns /. 1e9) untraced), "s");
          ("ok_ops_ratio", 1. -. (float failed /. float attempted), "ratio");
        ]
      in
      { correct = checks && failed = 0; attempted; failed; metrics; notes }
    else begin
      let ledgers = List.map (fun (s, m) -> ledger_of m s) traced in
      let accounted = List.for_all (fun (_, ok, _) -> ok) ledgers in
      let layer =
        List.map
          (fun name ->
            ( name,
              mean (List.map (fun (l, _, _) -> List.assoc name l) ledgers),
              if String.ends_with ~suffix:"us" name then "us"
              else if String.ends_with ~suffix:"share" name then "ratio"
              else if String.ends_with ~suffix:"bytes" name || String.ends_with ~suffix:"bytes_per_op" name then "B"
              else if String.ends_with ~suffix:"per_write" name || String.ends_with ~suffix:"per_tick" name then "ratio"
              else "count" ))
          per_layer_names
      in
      let late = List.concat_map (fun m -> m.late_ns) untraced in
      let window l = median (List.map (fun m -> float m.window_ns) l) in
      let bench =
        [
          ("bench.gen_late_p50_ms", ms (percentile_int late 50.), "ms");
          ("bench.gen_late_p99_ms", ms (percentile_int late 99.), "ms");
          ("bench.visibility_p50_ms", visibility 50., "ms");
          ("bench.visibility_p99_ms", visibility 99., "ms");
          ("bench.visibility_samples", float (List.length vis), "count");
          ("bench.trace_overhead", window (List.map snd traced) /. window untraced, "ratio");
        ]
      in
      let residuals =
        List.map (fun (_, _, r) -> Printf.sprintf "%.3f" r) ledgers
      in
      {
        correct = checks && failed = 0 && accounted;
        attempted;
        failed;
        metrics = layer @ bench;
        notes =
          notes
          @ [
              Printf.sprintf "ledger: self times + residual account for traced wall: %b (residual share per traced sample: %s)"
                accounted (String.concat " " residuals);
            ];
      }
    end
end

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let print_result ~correct ~attempted ~failed ~metrics ~notes =
  List.iter print_endline notes;
  List.iter (fun (n, v, u) -> Printf.printf "%-28s %s %s\n" n (json_number v) u) metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
          metrics))

let opt args name =
  let rec go = function
    | k :: v :: _ when String.equal k name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let req args name =
  match opt args name with
  | Some v -> v
  | None ->
      Printf.eprintf "missing %s\n" name;
      exit 2

let flag args name = List.exists (String.equal name) args

let int_arg args name =
  match int_of_string_opt (req args name) with
  | Some n -> n
  | None ->
      Printf.eprintf "%s wants an integer\n" name;
      exit 2

let with_spec args f =
  let (module S : SPEC) = find_workload (req args "--workload") in
  Option.iter Ledger.inject (opt args "--inject");
  f (module S : SPEC)

(* Attribution self-test: inject a known busy-wait into one span of a
   traced simulator sample (deterministic call counts) and check that the
   ledger moves that span by calls x delay and no other layer beyond the
   spread of the uninjected samples. *)
let selftest () =
  let seed = 1 in
  let module B = Bench (Sim_mesh) in
  let runs inject =
    let _, _, samples =
      B.collect ~seed ~seconds:0. ~trace:`Traced_only ~inject ~min_samples:5
    in
    List.map (fun (s, m) -> B.ledger_of m s) samples
  in
  let layers = [ "core"; "proto"; "wire"; "store"; "bench"; "engine" ] in
  let layer_us l layer =
    match layer with
    | "bench" | "engine" -> List.assoc (layer ^ ".self_us") l
    | _ ->
        List.fold_left
          (fun acc (k, v) ->
            if
              String.starts_with ~prefix:(layer ^ ".") k
              && String.ends_with ~suffix:".self_us" k
            then acc +. v
            else acc)
          0. l
  in
  let med f ls = B.median (List.map (fun (l, _, _) -> f l) ls) in
  let spread f ls =
    let v = List.map (fun (l, _, _) -> f l) ls in
    List.fold_left Float.max neg_infinity v -. List.fold_left Float.min infinity v
  in
  let base = runs None in
  let check (span, delay_us) =
    let inj = runs (Some (Printf.sprintf "%s:%g" span delay_us)) in
    let calls = med (List.assoc (span ^ ".calls")) inj in
    let expected = calls *. delay_us in
    let self k = List.assoc (span ^ ".self_us") k in
    let moved = med self inj -. med self base in
    let ok_span = Float.abs ((moved /. expected) -. 1.) <= 0.15 in
    Printf.printf "inject %s +%gus x %.0f calls: expected +%.0fus, ledger moved %+.0fus (%s)\n"
      span delay_us calls expected moved (if ok_span then "ok" else "FAIL");
    let own = Ledger.layer_of span in
    let ok_layers =
      List.for_all
        (fun layer ->
          let f l = layer_us l layer in
          let delta = med f inj -. med f base -. if layer = own then moved else 0. in
          let allowed = (3. *. spread f base) +. (0.05 *. expected) in
          let ok = Float.abs delta <= allowed in
          Printf.printf "  %-7s moved %+10.0fus (allowed +/-%.0fus) %s\n" layer delta allowed
            (if ok then "ok" else "FAIL");
          ok)
        layers
    in
    let accounted = List.for_all (fun (_, ok, _) -> ok) (base @ inj) in
    ok_span && ok_layers && accounted
  in
  let results = List.map check [ ("wire.size", 20.); ("core.join", 5.) ] in
  let ok = List.for_all Fun.id results in
  Printf.printf "attribution self-test: %s\n%!" (if ok then "passed" else "FAILED");
  ok

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | "replica" :: rest ->
      with_spec rest (fun (module S) ->
          let module B = Bench (S) in
          B.replica_child ~plan_file:(req rest "--plan") ~id:(int_arg rest "--id")
            ~out:(req rest "--out") ~dir:(req rest "--dir") ~traced:(flag rest "--traced"))
  | "sim" :: rest ->
      with_spec rest (fun (module S) ->
          let module B = Bench (S) in
          B.sim_child ~plan_file:(req rest "--plan") ~out:(req rest "--out")
            ~traced:(flag rest "--traced"))
  | "run" :: rest ->
      let (module S : SPEC) = find_workload (req rest "--workload") in
      let module B = Bench (S) in
      let seconds = float (int_arg rest "--seconds") in
      let trace =
        match req rest "--trace" with
        | "0" -> false
        | "1" -> true
        | t ->
            Printf.eprintf "--trace wants 0 or 1, got %s\n" t;
            exit 2
      in
      let r = B.run ~seed:(int_arg rest "--seed") ~seconds ~trace in
      print_result ~correct:r.B.correct ~attempted:r.B.attempted ~failed:r.B.failed
        ~metrics:r.B.metrics ~notes:r.B.notes
  | [ "selftest" ] -> exit (if selftest () then 0 else 1)
  | _ ->
      prerr_endline
        "usage: bench.exe run --workload W --seed N --seconds S --trace 0|1\n\
        \       bench.exe selftest";
      exit 2
