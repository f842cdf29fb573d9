(* Per-process span ledger for traced runs.

   A span is opened by the benchmark's own wrappers around a call into
   one layer (a lattice operation, a protocol step, a codec call, a store
   append) and closed when the call returns.  Spans nest: a protocol
   [handle] contains the lattice joins it performs.  A span's self time
   is its duration minus the time covered by the spans it contains, so
   the self times of all spans add up to the summed duration of the
   outermost spans ([top_ns]), and wall time minus that sum is the time
   spent outside every span (the residual: event loop, syscalls, driver
   bookkeeping).

   Untraced runs never call into this module's timing functions: they
   instantiate the unwrapped modules instead. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]
external cpu_ns : unit -> int = "perfbench_cpu_ns" [@@noalloc]
external pin : int -> int = "perfbench_pin"

type span = {
  name : string;
  mutable calls : int;
  mutable self_ns : int;
  mutable delay_ns : int;
      (* busy-wait injected at the end of every call: the attribution
         self-test's known cost. *)
  mutable samples : int array;  (* per-call durations, when kept. *)
  mutable nsamples : int;
  keep : bool;
}

let all : span list ref = ref []

let span ?(keep = false) name =
  let s =
    {
      name;
      calls = 0;
      self_ns = 0;
      delay_ns = 0;
      samples = (if keep then Array.make 256 0 else [||]);
      nsamples = 0;
      keep;
    }
  in
  all := s :: !all;
  s

let spans () = List.rev !all
let find name = List.find (fun s -> String.equal s.name name) !all

(* The lattice calls the protocols make (Δ, ⊔, ⊑, equality, mutators and
   decompositions). *)
let core_join = span "core.join"
let core_delta = span "core.delta"
let core_leq = span "core.leq"
let core_equal = span "core.equal"
let core_mutate = span "core.mutate"
let core_decompose = span "core.decompose"

(* The protocol steps the engine drives. *)
let proto_tick = span "proto.tick"
let proto_handle = span "proto.handle"
let proto_local_update = span "proto.local_update"

(* Message codec calls: framing payload encode/decode and the exact-size
   computation used for byte accounting. *)
let wire_encode = span "wire.encode"
let wire_decode = span "wire.decode"
let wire_size = span "wire.size"

(* The benchmark's persist callback. *)
let store_append = span ~keep:true "store.append"
let store_checkpoint = span "store.checkpoint"

(* The benchmark's own work inside a measured run: the visibility
   oracle, the per-tick timeline, and the closed loop's window check and
   start barrier. *)
let bench_oracle = span "bench.oracle"

let layer_of name = String.sub name 0 (String.index name '.')

(* Counters kept beside the spans. *)
let proto_msgs = ref 0
let wire_bytes = ref 0
let store_bytes = ref 0

(* Nesting: [child.(d)] accumulates the durations of the spans closed
   directly inside the span open at depth [d]. *)
let depth = ref 0
let child = Array.make 256 0
let top_ns = ref 0

let reset () =
  List.iter
    (fun s ->
      s.calls <- 0;
      s.self_ns <- 0;
      s.nsamples <- 0)
    !all;
  proto_msgs := 0;
  wire_bytes := 0;
  store_bytes := 0;
  depth := 0;
  top_ns := 0

let spin ns =
  let t0 = now_ns () in
  while now_ns () - t0 < ns do
    ()
  done

let[@inline] enter () =
  let d = !depth in
  child.(d) <- 0;
  depth := d + 1;
  now_ns ()

let keep_sample s dt =
  if s.nsamples = Array.length s.samples then begin
    let grown = Array.make (2 * s.nsamples) 0 in
    Array.blit s.samples 0 grown 0 s.nsamples;
    s.samples <- grown
  end;
  s.samples.(s.nsamples) <- dt;
  s.nsamples <- s.nsamples + 1

let[@inline] leave s t0 =
  if s.delay_ns > 0 then spin s.delay_ns;
  let dt = now_ns () - t0 in
  let d = !depth - 1 in
  depth := d;
  s.calls <- s.calls + 1;
  s.self_ns <- s.self_ns + dt - child.(d);
  if s.keep then keep_sample s dt;
  if d > 0 then child.(d - 1) <- child.(d - 1) + dt
  else top_ns := !top_ns + dt

let time1 s f a =
  let t0 = enter () in
  match f a with
  | r ->
      leave s t0;
      r
  | exception e ->
      leave s t0;
      raise e

let time2 s f a b =
  let t0 = enter () in
  match f a b with
  | r ->
      leave s t0;
      r
  | exception e ->
      leave s t0;
      raise e

let time3 s f a b c =
  let t0 = enter () in
  match f a b c with
  | r ->
      leave s t0;
      r
  | exception e ->
      leave s t0;
      raise e

(* A process's ledger as plain data, shipped to the parent. *)
type snapshot = {
  entries : (string * int * int) list;  (** name, calls, self ns. *)
  top : int;
  msgs : int;
  enc_bytes : int;
  st_bytes : int;
  append_ns : int array;
}

let snapshot () =
  {
    entries = List.map (fun s -> (s.name, s.calls, s.self_ns)) (spans ());
    top = !top_ns;
    msgs = !proto_msgs;
    enc_bytes = !wire_bytes;
    st_bytes = !store_bytes;
    append_ns = Array.sub store_append.samples 0 store_append.nsamples;
  }

(* [LAYER:US] — inject a per-call busy-wait into one span. *)
let inject spec =
  match String.index_opt spec ':' with
  | None -> invalid_arg ("--inject wants SPAN:MICROSECONDS, got " ^ spec)
  | Some i ->
      let name = String.sub spec 0 i in
      let us = float_of_string (String.sub spec (i + 1) (String.length spec - i - 1)) in
      (find name).delay_ns <- int_of_float (us *. 1000.)
