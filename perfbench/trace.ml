(* The traced run's span recorder and the layer wrappers.

   Spans are recorded only from the benchmark's side of each layer
   boundary: around the calls the workloads make into the monitor's
   public entry points and the distributed layer, and —
   because [Tyche.Backend_intf.t] and [Persist.Store.t] are records of
   closures — around every backend and store operation the program
   makes, by handing the program wrapped records ({!wrap_backend},
   {!wrap_store}). Nothing inside the program changes.

   Each span has a name, a layer, a start, an end, a parent and the id
   of the benchmark op that caused it. A layer's self time is its
   span's duration minus the time its child spans cover. Aggregates are
   kept for every span; the span records themselves are kept in memory
   up to {!log_cap} and written out by {!write_log} when the run ends.

   With [recording] off, {!span} is a plain call: the end-to-end run
   installs no wrappers at all, and the traced run switches recording
   on and off in slices to measure its own overhead. *)

type layer = Api | Backend | Persist | Distributed

let layer_name = function
  | Api -> "api"
  | Backend -> "backend"
  | Persist -> "persist"
  | Distributed -> "distributed"

let layer_index = function Api -> 0 | Backend -> 1 | Persist -> 2 | Distributed -> 3

let recording = ref false

(* Set by the op accounting: the benchmark op the next root span
   belongs to. *)
let op_id = ref 0

type stat = { mutable count : int; mutable incl_ns : int; mutable self_ns : int }

let stats : (string, stat) Hashtbl.t = Hashtbl.create 64

let stat name =
  match Hashtbl.find_opt stats name with
  | Some s -> s
  | None ->
    let s = { count = 0; incl_ns = 0; self_ns = 0 } in
    Hashtbl.replace stats name s;
    s

(* Self time per layer, in total and per root span name (the top-level
   call that caused it), and nested span counts per root name. *)
let layer_self = Array.make 4 0
let root_layer_self : (string * int, int ref) Hashtbl.t = Hashtbl.create 64
let root_counts : (string * string, int ref) Hashtbl.t = Hashtbl.create 64

let bump tbl key by =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace tbl key (ref by)

let root_self ~root layer =
  match Hashtbl.find_opt root_layer_self (root, layer_index layer) with
  | Some r -> !r
  | None -> 0

let root_count ~root name =
  match Hashtbl.find_opt root_counts (root, name) with Some r -> !r | None -> 0

(* --- the span stack ---------------------------------------------------- *)

let max_depth = 64
let st_name = Array.make max_depth ""
let st_layer = Array.make max_depth Api
let st_t0 = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_id = Array.make max_depth 0
let depth = ref 0
let next_id = ref 0

(* --- the span log ------------------------------------------------------ *)

let log_cap = 20_000

type record = {
  r_id : int;
  r_parent : int;
  r_op : int;
  r_name : string;
  r_layer : layer;
  r_start : int;
  r_end : int;
}

let log : record array =
  Array.make log_cap
    { r_id = 0; r_parent = 0; r_op = 0; r_name = ""; r_layer = Api; r_start = 0; r_end = 0 }

let logged = ref 0

let enter layer name =
  let d = !depth in
  if d >= max_depth then failwith "perfbench: span stack overflow";
  incr next_id;
  st_name.(d) <- name;
  st_layer.(d) <- layer;
  st_child.(d) <- 0;
  st_id.(d) <- !next_id;
  depth := d + 1;
  st_t0.(d) <- Clock.now_ns ()

let leave () =
  let t1 = Clock.now_ns () in
  let d = !depth - 1 in
  depth := d;
  let name = st_name.(d) and layer = st_layer.(d) in
  let dur = t1 - st_t0.(d) in
  let self = dur - st_child.(d) in
  let s = stat name in
  s.count <- s.count + 1;
  s.incl_ns <- s.incl_ns + dur;
  s.self_ns <- s.self_ns + self;
  let li = layer_index layer in
  layer_self.(li) <- layer_self.(li) + self;
  let root = st_name.(0) in
  bump root_layer_self (root, li) self;
  if d > 0 then begin
    st_child.(d - 1) <- st_child.(d - 1) + dur;
    bump root_counts (root, name) 1
  end;
  if !logged < log_cap then begin
    log.(!logged) <-
      { r_id = st_id.(d); r_parent = (if d > 0 then st_id.(d - 1) else 0); r_op = !op_id;
        r_name = name; r_layer = layer; r_start = st_t0.(d); r_end = t1 };
    incr logged
  end

let span layer name f =
  if not !recording then f ()
  else begin
    enter layer name;
    match f () with
    | v ->
      leave ();
      v
    | exception e ->
      leave ();
      raise e
  end

let reset () =
  Hashtbl.reset stats;
  Hashtbl.reset root_layer_self;
  Hashtbl.reset root_counts;
  Array.fill layer_self 0 4 0;
  depth := 0;
  logged := 0

let write_log path =
  let oc = open_out path in
  for i = 0 to !logged - 1 do
    let r = log.(i) in
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"layer\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
      r.r_id r.r_parent r.r_op r.r_name (layer_name r.r_layer) r.r_start r.r_end
  done;
  close_out oc

(* --- layer wrappers ---------------------------------------------------- *)

(* Counted work on the store side (counted only while recording). *)
let persist_bytes = ref 0
let persist_fsyncs = ref 0

let wrap_backend (b : Tyche.Backend_intf.t) : Tyche.Backend_intf.t =
  let sp name f = span Backend name f in
  { b with
    domain_created = (fun d -> sp "backend.domain_created" (fun () -> b.domain_created d));
    domain_destroyed = (fun d -> sp "backend.domain_destroyed" (fun () -> b.domain_destroyed d));
    apply_effect =
      (fun e ->
        let name =
          match e with
          | Cap.Captree.Attach _ -> "backend.attach"
          | Cap.Captree.Detach _ -> "backend.detach"
        in
        sp name (fun () -> b.apply_effect e));
    validate_attach = (fun d r -> sp "backend.validate" (fun () -> b.validate_attach d r));
    transition =
      (fun ~core ~from_ ~to_ ~flush_microarch ->
        sp "backend.transition" (fun () -> b.transition ~core ~from_ ~to_ ~flush_microarch));
    launch = (fun ~core d -> sp "backend.launch" (fun () -> b.launch ~core d));
    domain_reaches = (fun d r -> sp "backend.reaches" (fun () -> b.domain_reaches d r));
    domain_encrypted = (fun d -> sp "backend.encrypted" (fun () -> b.domain_encrypted d));
    txn_begin = (fun () -> sp "backend.txn_begin" b.txn_begin);
    txn_commit = (fun () -> sp "backend.commit" b.txn_commit);
    txn_rollback = (fun () -> sp "backend.rollback" b.txn_rollback) }

let wrap_store (s : Persist.Store.t) : Persist.Store.t =
  let sp name f = span Persist name f in
  { s with
    read = (fun blob -> sp "persist.read" (fun () -> s.read blob));
    append =
      (fun blob data ->
        if !recording then persist_bytes := !persist_bytes + String.length data;
        sp "persist.append" (fun () -> s.append blob data));
    fsync =
      (fun blob ->
        if !recording then incr persist_fsyncs;
        sp "persist.fsync" (fun () -> s.fsync blob));
    reset = (fun blob -> sp "persist.reset" (fun () -> s.reset blob));
    truncate = (fun blob keep -> sp "persist.truncate" (fun () -> s.truncate blob keep));
    replace =
      (fun blob data ->
        if !recording then persist_bytes := !persist_bytes + String.length data;
        sp "persist.replace" (fun () -> s.replace blob data)) }
