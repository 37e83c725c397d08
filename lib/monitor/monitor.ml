let src = Logs.Src.create "tyche.monitor" ~doc:"Tyche isolation monitor"

module Log = (val Logs.src_log src : Logs.LOG)

type error =
  | Cap_error of Cap.Captree.error
  | Unknown_domain of Domain.id
  | Denied of string
  | Backend_refused of string
  | Backend_failure of string
  | Bad_transition of string
  | Domain_config of string

let error_to_string = function
  | Cap_error e -> "capability error: " ^ Cap.Captree.error_to_string e
  | Unknown_domain id -> Printf.sprintf "unknown domain %d" id
  | Denied s -> "denied: " ^ s
  | Backend_refused s -> "backend refused: " ^ s
  | Backend_failure s -> "backend failure (rolled back): " ^ s
  | Bad_transition s -> "bad transition: " ^ s
  | Domain_config s -> "domain configuration: " ^ s

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

(* Memoized attestation body: the capability enumeration (regions with
   refcounts/holders, core and device counts) is a pure function of the
   tree state and the domain's measured ranges, so it can be reused
   verbatim until either changes. Signatures are NEVER cached — each
   attestation consumes a fresh one-time key over a fresh nonce. *)
type attest_entry = {
  at_generation : int; (* Captree.generation when the body was built *)
  at_measured : Hw.Addr.Range.t list;
  at_regions : Attestation.region_report list;
  at_cores : (int * int) list;
  at_devices : (int * int) list;
}

(* Durable redo layer (armed by [enable_persistence] or [recover]).
   [p_seq] numbers committed operations; the WAL holds records
   [snapshot_seq+1 .. p_seq] (minus an unsynced or torn tail), and each
   snapshot in the store records the seq it captures, so recovery can
   replay exactly the suffix. [p_replaying] mutes logging while recovery
   re-executes the suffix through the normal API. *)
type persist_cfg = {
  p_store : Persist.Store.t;
  p_snapshot_every : int;
  (* Group-commit queue over the WAL blob: appends accumulate and one
     fsync acknowledges the whole batch (its [durable_seq] is the
     acknowledgement floor recovery must honor). *)
  p_group : Persist.Group.t;
  mutable p_seq : int;
  mutable p_since_snapshot : int;
  mutable p_replaying : bool;
  (* Incremental-checkpoint bookkeeping. [p_ckpt_gen] is the captree
     generation the last checkpoint covered; a bucket is dirty iff its
     [Captree.bucket_generation] is newer (or it was never serialized).
     [p_seg_cache] maps bucket -> segment hash as of that checkpoint
     ([""] marks an empty bucket); [p_seg_durable] is the set of segment
     hashes known durable in the segment blob, the dedup filter. *)
  mutable p_ckpt_gen : int;
  p_seg_cache : (int, string) Hashtbl.t;
  p_seg_durable : (string, unit) Hashtbl.t;
  (* False when the snapshot/segment streams may end in a torn frame
     (fresh store, or a checkpoint died mid-write). Checkpoints repair
     the tails only then: the repair scan parses both blobs end to end,
     which would otherwise put an O(total state) term in every
     checkpoint pause. *)
  mutable p_tails_ok : bool;
}

type t = {
  machine : Hw.Machine.t;
  mutable tree : Cap.Captree.t; (* mutable only for [recover] *)
  backend : Backend_intf.t;
  tpm : Rot.Tpm.t;
  signer : Crypto.Signature.signer;
  domains : (Domain.id, Domain.t) Hashtbl.t;
  mutable next_domain : Domain.id;
  current : Domain.id array; (* per-core running domain *)
  stacks : Domain.id list array; (* per-core return stacks *)
  reg_contexts : (Domain.id * int, int array) Hashtbl.t; (* (domain, core) *)
  mutable transitions : int;
  attest_cache : (Domain.id, attest_entry) Hashtbl.t;
  keypool : Crypto.Keypool.t option;
  mutable attests : int; (* attestations signed (telemetry) *)
  mutable body_hits : int; (* memoized attestation bodies reused *)
  mutable body_misses : int; (* bodies re-enumerated *)
  mutable persist : persist_cfg option;
}

let key_binding_pcr = 18

let ( let* ) = Result.bind

let machine t = t.machine
let tree t = t.tree
let backend t = t.backend
let attestation_root t = Crypto.Signature.public_root t.signer
let transition_count t = t.transitions

let find_domain t id = Hashtbl.find_opt t.domains id

let domains t =
  Hashtbl.fold (fun _ d acc -> d :: acc) t.domains []
  |> List.sort (fun a b -> Int.compare (Domain.id a) (Domain.id b))

let get_domain t id =
  match find_domain t id with Some d -> Ok d | None -> Error (Unknown_domain id)

(* A domain may hold several *overlapping* active capabilities over the
   same memory — a range shared back to it by a peer, a self-grant, or
   split remainders of such an alias. Detaching one of them must not
   tear down hardware access (or run destructive cleanup) on bytes the
   domain still legitimately reaches through the survivors. Effects are
   applied after the tree mutation, so the tree at this point lists
   exactly the surviving active holdings.

   Rewrite every memory Detach into canonical form:
   - pieces no surviving capability covers detach with the original
     clean-up policy (destructive clean-up only ever touches memory the
     domain genuinely lost);
   - covered pieces detach with [Keep] and are immediately re-attached
     under each surviving holder's own permission.

   Merely suppressing the covered pieces (keeping whatever entries the
   historical attach order produced) is not enough: a stale fragment
   whose permission happens to match its neighbours can bridge two
   disjoint active holdings into one hardware entry, so the live layout
   can need *fewer* finite hardware slots (PMP entries) than the
   canonical per-(domain, perm) union of active holdings. Crash
   recovery re-derives exactly that canonical union from a snapshot;
   keeping the live layout canonical too is what guarantees recovery's
   re-attach fits any budget the live run fit. *)
let trim_detach t eff =
  match eff with
  | Cap.Captree.Detach { domain; resource = Cap.Resource.Memory r; cleanup } ->
    let survivors =
      List.filter_map
        (fun c ->
          match (Cap.Captree.resource t.tree c, Cap.Captree.rights t.tree c) with
          | Some (Cap.Resource.Memory held), Some rights
            when Hw.Addr.Range.overlaps held r ->
            Some (held, rights.Cap.Rights.perm)
          | _ -> None)
        (Cap.Captree.caps_of_domain t.tree domain)
    in
    let uncovered =
      List.fold_left
        (fun pieces (held, _) ->
          List.concat_map (fun p -> Hw.Addr.Range.subtract p held) pieces)
        [ r ] survivors
    in
    let covered =
      List.fold_left
        (fun pieces unc ->
          List.concat_map (fun p -> Hw.Addr.Range.subtract p unc) pieces)
        [ r ] uncovered
    in
    let detach ~cleanup piece =
      Cap.Captree.Detach { domain; resource = Cap.Resource.Memory piece; cleanup }
    in
    let reattach =
      List.filter_map
        (fun (held, perm) ->
          match Hw.Addr.Range.intersect held r with
          | Some piece ->
            Some
              (Cap.Captree.Attach
                 { domain; resource = Cap.Resource.Memory piece; perm })
          | None -> None)
        survivors
    in
    List.map (detach ~cleanup) uncovered
    @ List.map (detach ~cleanup:Cap.Revocation.Keep) covered
    @ reattach
  | eff -> [ eff ]

(* Apply backend effects in order, stopping at the first failure. The
   typed [Backend_failure] error replaces the old invalid_arg escape
   hatch: callers run inside [with_txn], which rolls both the tree and
   the hardware back, so a failed effect can never leave the two
   disagreeing. *)
let apply_effects t effects =
  let rec go = function
    | [] -> Ok ()
    | eff :: rest -> (
      match t.backend.Backend_intf.apply_effect eff with
      | Ok () -> go rest
      | Error msg ->
        Log.warn (fun m -> m "backend effect failed, rolling back: %s" msg);
        Error (Backend_failure msg))
  in
  go (List.concat_map (trim_detach t) effects)

let cap_result t = function
  | Ok (value, effects) ->
    let* () = apply_effects t effects in
    Ok value
  | Error e -> Error (Cap_error e)

(* --- conversions to the snapshot's neutral types --------------------- *)

let range_pair r = (Hw.Addr.Range.base r, Hw.Addr.Range.len r)
let pair_range (base, len) = Hw.Addr.Range.make ~base ~len

let resource_to_wire = function
  | Cap.Resource.Memory r ->
    Persist.Snapshot.Mem { base = Hw.Addr.Range.base r; len = Hw.Addr.Range.len r }
  | Cap.Resource.Cpu_core c -> Persist.Snapshot.Core c
  | Cap.Resource.Device d -> Persist.Snapshot.Dev d

let resource_of_wire = function
  | Persist.Snapshot.Mem { base; len } -> Cap.Resource.Memory (pair_range (base, len))
  | Persist.Snapshot.Core c -> Cap.Resource.Cpu_core c
  | Persist.Snapshot.Dev d -> Cap.Resource.Device d

let domain_spec d =
  { Persist.Snapshot.d_id = Domain.id d;
    d_name = Domain.name d;
    d_kind = Domain.kind_to_int (Domain.kind d);
    d_created_by = (match Domain.created_by d with Some c -> c | None -> -1);
    d_sealed = Domain.is_sealed d;
    d_entry = (match Domain.entry_point d with Some e -> e | None -> -1);
    d_measured = List.map range_pair (Domain.measured_ranges d);
    d_flush = Domain.flush_on_transition d;
    d_measurement =
      (match Domain.measurement d with
      | Some m -> Crypto.Sha256.to_raw m
      | None -> "") }

let node_to_wire (ns : Cap.Captree.node_spec) =
  { Persist.Snapshot.n_id = ns.ns_id;
    n_resource = resource_to_wire ns.ns_resource;
    n_rights = Cap.Rights.to_bits ns.ns_rights;
    n_owner = ns.ns_owner;
    n_cleanup = Cap.Revocation.to_int ns.ns_cleanup;
    n_parent = (match ns.ns_parent with Some p -> p | None -> -1);
    n_origin = Cap.Captree.origin_to_int ns.ns_origin;
    n_state = Cap.Captree.state_to_int ns.ns_state;
    n_children = ns.ns_children }

let node_of_wire (n : Persist.Snapshot.node_spec) =
  match
    ( Cap.Rights.of_bits n.Persist.Snapshot.n_rights,
      Cap.Revocation.of_int n.n_cleanup,
      Cap.Captree.origin_of_int n.n_origin,
      Cap.Captree.state_of_int n.n_state )
  with
  | Some rights, Some cleanup, Some origin, Some state ->
    Ok
      { Cap.Captree.ns_id = n.n_id;
        ns_resource = resource_of_wire n.n_resource;
        ns_rights = rights;
        ns_owner = n.n_owner;
        ns_cleanup = cleanup;
        ns_parent = (if n.n_parent < 0 then None else Some n.n_parent);
        ns_origin = origin;
        ns_state = state;
        ns_children = n.n_children }
  | _ -> Error (Printf.sprintf "snapshot: bad node encoding for cap %d" n.n_id)

let snapshot_state t seq =
  { Persist.Snapshot.seq;
    next_domain = t.next_domain;
    next_cap = Cap.Captree.next_id t.tree;
    generation = Cap.Captree.generation t.tree;
    domains = List.map domain_spec (domains t);
    nodes = List.map node_to_wire (Cap.Captree.dump t.tree);
    current = Array.to_list t.current;
    stacks = Array.to_list t.stacks }

(* A crash mid-snapshot-append leaves a torn frame at the blob's tail,
   and the newest-valid scan cannot see past it — an append after the
   tear would be durable but unreachable. Checkpoints repair the tail
   first; retiring the WAL is only sound once the new record is
   actually loadable. *)
let repair_snap_tail cfg =
  let scan = Persist.Wal.read cfg.p_store ~blob:Persist.Store.snap_blob in
  if scan.Persist.Wal.truncated then
    Persist.Store.truncate cfg.p_store Persist.Store.snap_blob
      scan.Persist.Wal.valid_bytes

(* The segment stream has the same hazard: a crash mid-segment-append
   leaves a torn frame, and anything appended after it would be durable
   but invisible to the CRC-framed parse — a later manifest would then
   reference a segment recovery cannot find, poisoning the fallback
   chain. Repair before appending. *)
let repair_seg_tail cfg =
  let scan = Persist.Wal.read cfg.p_store ~blob:Persist.Store.seg_blob in
  if scan.Persist.Wal.truncated then
    Persist.Store.truncate cfg.p_store Persist.Store.seg_blob
      scan.Persist.Wal.valid_bytes

(* Full checkpoint: make the snapshot durable FIRST, then retire the WAL
   it subsumes. A crash between the two leaves both the snapshot and the
   (now-redundant) log — recovery replays records with seq ≤ snapshot
   seq as no-ops by filtering, so every window is benign. *)
let write_snapshot t cfg =
  if not cfg.p_tails_ok then begin
    repair_snap_tail cfg;
    repair_seg_tail cfg
  end;
  (* Not-ok while this write is in flight: a crash inside it leaves a
     torn tail the next writer must scan for. *)
  cfg.p_tails_ok <- false;
  Persist.Snapshot.write cfg.p_store (snapshot_state t cfg.p_seq);
  cfg.p_tails_ok <- true;
  Persist.Wal.reset cfg.p_store ~blob:Persist.Store.wal_blob;
  Persist.Group.note_durable cfg.p_group ~seq:cfg.p_seq;
  cfg.p_since_snapshot <- 0

(* Incremental checkpoint. Crash-safe order:
     1. serialize dirty buckets, append + fsync new segments;
     2. append + fsync the version-2 manifest — the commit point;
     3. compact the WAL prefix the manifest covers;
     4. GC segment blobs the newest manifest no longer references.
   A crash inside 1 leaves unreferenced garbage segments (harmless,
   GC'd later); inside 2, a torn manifest the newest-valid scan skips;
   inside 3 or 4, covered-but-present WAL records (replay filters them)
   or an intact pre-GC segment blob. Every window recovers. *)
let ckpt_pause_h = Obs.Metrics.histogram "persist.ckpt.pause_ns"
let ckpt_bytes_h = Obs.Metrics.histogram "persist.ckpt.bytes"
let ckpt_segs_h = Obs.Metrics.histogram "persist.ckpt.segments"
let ckpt_c = Obs.Metrics.counter "persist.ckpt"
let seg_gc_c = Obs.Metrics.counter "persist.seg_gc_dropped"

let write_checkpoint t cfg =
  let t0 = Sys.time () in
  if not cfg.p_tails_ok then begin
    repair_snap_tail cfg;
    repair_seg_tail cfg
  end;
  cfg.p_tails_ok <- false;
  let tree = t.tree in
  let span = Cap.Captree.seg_span in
  let max_bucket = (Cap.Captree.next_id tree - 1) / span in
  let entries = ref [] and fresh = ref [] and bytes = ref 0 in
  for b = 0 to max_bucket do
    let dirty =
      match Hashtbl.find_opt cfg.p_seg_cache b with
      | None -> true
      | Some _ -> Cap.Captree.bucket_generation tree b > cfg.p_ckpt_gen
    in
    if dirty then begin
      match Cap.Captree.dump_bucket tree b with
      | [] -> Hashtbl.replace cfg.p_seg_cache b ""
      | nodes ->
        let h, payload = Persist.Snapshot.seg_encode (List.map node_to_wire nodes) in
        if not (Hashtbl.mem cfg.p_seg_durable h) then fresh := (b, h, payload) :: !fresh;
        Hashtbl.replace cfg.p_seg_cache b h
    end;
    match Hashtbl.find_opt cfg.p_seg_cache b with
    | Some "" | None -> ()
    | Some h -> entries := (b, h) :: !entries
  done;
  let entries = List.rev !entries in
  (match List.rev !fresh with
  | [] -> ()
  | fresh ->
    List.iter
      (fun (b, _, payload) ->
        bytes := !bytes + String.length payload;
        Persist.Snapshot.append_segment cfg.p_store ~bucket:b payload)
      fresh;
    Persist.Snapshot.fsync_segments cfg.p_store;
    (* Only now are these hashes safe to dedup against: marking them
       before the fsync could let a later manifest reference bytes a
       crash threw away. *)
    List.iter (fun (_, h, _) -> Hashtbl.replace cfg.p_seg_durable h ()) fresh);
  let m =
    { Persist.Snapshot.m_seq = cfg.p_seq;
      m_next_domain = t.next_domain;
      m_next_cap = Cap.Captree.next_id tree;
      m_generation = Cap.Captree.generation tree;
      m_domains = List.map domain_spec (domains t);
      m_current = Array.to_list t.current;
      m_stacks = Array.to_list t.stacks;
      m_span = span;
      m_segments = entries }
  in
  bytes := !bytes + String.length (Persist.Snapshot.encode_manifest m);
  Persist.Snapshot.write_manifest cfg.p_store m;
  cfg.p_tails_ok <- true;
  cfg.p_ckpt_gen <- Cap.Captree.generation tree;
  cfg.p_since_snapshot <- 0;
  Persist.Group.note_durable cfg.p_group ~seq:cfg.p_seq;
  ignore
    (Persist.Wal.compact cfg.p_store ~blob:Persist.Store.wal_blob ~upto:cfg.p_seq);
  (* GC once dead blobs dominate: rewrite keeps exactly the hashes the
     manifest just committed, so older manifests may stop materializing
     — recovery then falls back past them, which the newest (durable)
     manifest makes moot. *)
  let live = Hashtbl.create (List.length entries) in
  List.iter (fun (_, h) -> Hashtbl.replace live h ()) entries;
  if Hashtbl.length cfg.p_seg_durable > (2 * Hashtbl.length live) + 8 then begin
    let _kept, dropped =
      Persist.Snapshot.gc_segments cfg.p_store ~live:(Hashtbl.mem live)
    in
    if dropped > 0 then begin
      Obs.Metrics.incr ~by:dropped seg_gc_c;
      Hashtbl.reset cfg.p_seg_durable;
      List.iter (fun (_, h) -> Hashtbl.replace cfg.p_seg_durable h ()) entries
    end
  end;
  Obs.Metrics.incr ckpt_c;
  Obs.Metrics.observe ckpt_segs_h (List.length !fresh);
  Obs.Metrics.observe ckpt_bytes_h !bytes;
  (* Host CPU time, not simulated cycles: the checkpoint charges no
     hardware events, and the pause we care about is real serialization
     work. Observability only — never feeds back into control flow. *)
  Obs.Metrics.observe ckpt_pause_h (int_of_float ((Sys.time () -. t0) *. 1e9))

(* Log one committed operation. Called after the in-memory commit: if
   the append crashes, memory is ahead of the log by exactly the ops the
   durable prefix is missing — the redo-log contract. During recovery
   replay, logging is muted (the records already exist). *)
let log_op t record =
  match t.persist with
  | None -> ()
  | Some cfg when cfg.p_replaying -> ()
  | Some cfg ->
    let seq = cfg.p_seq + 1 in
    cfg.p_seq <- seq;
    Persist.Group.append cfg.p_group ~seq (Journal.encode record);
    cfg.p_since_snapshot <- cfg.p_since_snapshot + 1;
    if cfg.p_since_snapshot >= cfg.p_snapshot_every then write_checkpoint t cfg

let log_call t ~caller call = log_op t (Journal.Call { caller; call })

(* Bracket one mutating API call: journal tree mutations and hardware
   effects, commit on success, roll BOTH back on a typed error or an
   exception — state after a failed call is structurally identical to
   state before it. The backend rolls back first (its undo may read
   nothing from the tree, but symmetry with the forward order —
   tree-then-hardware — costs nothing and composes: (ab)⁻¹ = b⁻¹a⁻¹).
   [?record] is the redo record to append once both commits land; only
   successful calls reach the log, so replay never re-fails. *)
let txn_commit_c = Obs.Metrics.counter "txn.commit"
let txn_rollback_c = Obs.Metrics.counter "txn.rollback"

(* Explicit transaction bracket for multi-monitor coordinators (the
   sharded front end's two-phase commit): [txn_begin] opens the captree
   journal and the backend's undo log, [txn_commit]/[txn_rollback] close
   them. While a bracket is open, [with_txn] detects the outer journal
   ([Captree.in_txn]) and runs its body bare — no nested begin, no
   commit, and crucially no [log_op]: the coordinator owns both the
   atomicity decision and the redo record. *)
let txn_begin t =
  Cap.Captree.txn_begin t.tree;
  t.backend.Backend_intf.txn_begin ()

let txn_commit t =
  t.backend.Backend_intf.txn_commit ();
  Cap.Captree.txn_commit t.tree;
  Obs.Metrics.incr txn_commit_c

let txn_rollback t =
  t.backend.Backend_intf.txn_rollback ();
  Cap.Captree.txn_rollback t.tree;
  Obs.Metrics.incr txn_rollback_c;
  Obs.instant "txn.rollback"

let with_txn ?record t f =
  if Cap.Captree.in_txn t.tree then
    (* Enlisted in an outer bracket: the coordinator's journal already
       covers this mutation, and it decides commit/rollback/logging. *)
    f ()
  else begin
    txn_begin t;
    match f () with
    | Ok _ as ok ->
      txn_commit t;
      (match record with Some r -> log_op t r | None -> ());
      ok
    | Error _ as err ->
      txn_rollback t;
      err
    | exception e ->
      txn_rollback t;
      raise e
  end

(* The monitor shell: signer, TPM binding, empty tables. Shared by
   [boot] (which then endows domain 0) and [recover] (which instead
   restores domains and the tree from a snapshot). *)
let make_monitor ~signer_height ?keypool machine ~backend ~tpm ~rng =
  let signer = Crypto.Signature.create ~height:signer_height ?pool:keypool rng in
  (* Bind the monitor's attestation key into the TPM so the tier-one
     quote certifies the tier-two signer (two-tier protocol, §3.4). *)
  Rot.Tpm.extend tpm ~pcr:key_binding_pcr (Crypto.Signature.public_root signer);
  { machine;
    tree = Cap.Captree.create ();
    backend;
    tpm;
    signer;
    domains = Hashtbl.create 16;
    next_domain = Domain.initial + 1;
    current = Array.make (Array.length machine.Hw.Machine.cores) Domain.initial;
    stacks = Array.make (Array.length machine.Hw.Machine.cores) [];
    reg_contexts = Hashtbl.create 16;
    transitions = 0;
    attest_cache = Hashtbl.create 16;
    keypool;
    attests = 0;
    body_hits = 0;
    body_misses = 0;
    persist = None }

(* Endow domain 0 with the whole machine minus the monitor's memory and
   launch it everywhere — the boot-time baseline state. *)
let endow_initial t ~monitor_range =
  let machine = t.machine in
  let backend = t.backend in
  let os = Domain.make ~id:Domain.initial ~name:"os" ~kind:Domain.Os ~created_by:None in
  Hashtbl.replace t.domains Domain.initial os;
  backend.Backend_intf.domain_created os;
  (* Endow domain 0 with the whole machine minus the monitor's memory. *)
  let free_memory =
    Hw.Addr.Range.subtract (Hw.Physmem.full_range machine.Hw.Machine.mem) monitor_range
  in
  let add_root resource =
    (* Boot-time only: there is no caller to hand an error to, so a
       failure here (impossible outside a misconfigured harness) is
       still fatal. No transaction is open — no journaling overhead. *)
    match Cap.Captree.root t.tree ~owner:Domain.initial resource Cap.Rights.full with
    | Ok (_, effects) -> (
      match apply_effects t effects with
      | Ok () -> ()
      | Error e -> invalid_arg ("Monitor.boot: " ^ error_to_string e))
    | Error e -> invalid_arg ("Monitor.boot: " ^ Cap.Captree.error_to_string e)
  in
  List.iter (fun r -> add_root (Cap.Resource.Memory r)) free_memory;
  Array.iteri (fun i _ -> add_root (Cap.Resource.Cpu_core i)) machine.Hw.Machine.cores;
  List.iter
    (fun d -> add_root (Cap.Resource.Device (Hw.Device.bdf d)))
    machine.Hw.Machine.devices;
  Array.iter (fun core -> backend.Backend_intf.launch ~core os) machine.Hw.Machine.cores;
  Log.info (fun m -> m "monitor booted: %d memory roots, %d cores, %d devices"
    (List.length free_memory)
    (Array.length machine.Hw.Machine.cores)
    (List.length machine.Hw.Machine.devices))

let boot ?(signer_height = 6) ?keypool machine ~backend ~tpm ~rng ~monitor_range =
  let t = make_monitor ~signer_height ?keypool machine ~backend ~tpm ~rng in
  (* Span latencies measure simulated cycles: point the observability
     clock at this machine's counter (last boot wins — stamps are
     per-process, and tests never compare them across worlds). *)
  Obs.set_clock (fun () -> Hw.Machine.cycles machine);
  endow_initial t ~monitor_range;
  t

(* Domain lifecycle *)

let create_domain t ~caller ~name ~kind =
  let* _ = get_domain t caller in
  let id = t.next_domain in
  t.next_domain <- id + 1;
  let d = Domain.make ~id ~name ~kind ~created_by:(Some caller) in
  Hashtbl.replace t.domains id d;
  t.backend.Backend_intf.domain_created d;
  Log.debug (fun m -> m "created %a by domain#%d" Domain.pp d caller);
  log_call t ~caller (Op.Create_domain { name; kind });
  Ok id

let creator_or_self ~caller ~domain d =
  if caller = domain || Domain.created_by d = Some caller then Ok ()
  else Error (Denied "only the domain or its creator may configure it")

(* Configuration additionally stops while the domain is mid-migration:
   the source monitor froze it so the streamed image cannot drift from
   the live state between the final copy round and the commit. *)
let configurable ~caller ~domain d =
  let* () = creator_or_self ~caller ~domain d in
  if Domain.is_migrating d then
    Error (Denied "domain is mid-migration: configuration is frozen")
  else Ok ()

let set_entry_point t ~caller ~domain addr =
  let* d = get_domain t domain in
  let* () = configurable ~caller ~domain d in
  match Domain.set_entry_point d addr with
  | Ok () ->
    log_call t ~caller (Op.Set_entry_point { domain; entry = addr });
    Ok ()
  | Error e -> Error (Domain_config e)

let set_flush_policy t ~caller ~domain flush =
  let* d = get_domain t domain in
  let* () = configurable ~caller ~domain d in
  if Domain.is_sealed d then Error (Domain_config "domain is sealed")
  else begin
    Domain.set_flush_on_transition d flush;
    log_call t ~caller (Op.Set_flush_policy { domain; flush });
    Ok ()
  end

let domain_holds_range t ~domain range =
  List.exists
    (fun cap ->
      match Cap.Captree.resource t.tree cap with
      | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.includes ~outer:r ~inner:range
      | _ -> false)
    (Cap.Captree.caps_of_domain t.tree domain)

let mark_measured t ~caller ~domain range =
  let* d = get_domain t domain in
  let* () = configurable ~caller ~domain d in
  if not (domain_holds_range t ~domain range) then
    Error (Denied "measured range not held by the domain")
  else
    match Domain.add_measured_range d range with
    | Ok () ->
      log_call t ~caller (Op.Mark_measured { domain; range });
      Ok ()
    | Error e -> Error (Domain_config e)

(* The sealed-unextended promise (enforced here, audited by fsck):
   once a domain seals, a measured region it holds *exclusively* may
   only become reachable by others through the domain's own
   delegations. Exclusivity is a lineage property: if any of the
   domain's overlapping capabilities descends through an [Orig_shared]
   link under a foreign owner, the sharer kept concurrent access, the
   region was never exclusively the domain's, and no promise attaches.
   Exclusive (root/grant/split) lineage admits no such concurrent
   holder, and because only active capabilities can be shared or
   granted, new access can then enter solely through the sealed
   domain's subtree — so refusing to seal over pre-existing exposure
   keeps the invariant inductively. *)
let rec chain_owned_by tree who c =
  (match Cap.Captree.owner tree c with Some o -> o = who | None -> false)
  ||
  match Cap.Captree.parent tree c with
  | Some p -> chain_owned_by tree who p
  | None -> false

let caps_overlapping tree domain res =
  List.filter
    (fun cap ->
      match Cap.Captree.resource tree cap with
      | Some r -> Cap.Resource.overlaps r res
      | None -> false)
    (Cap.Captree.caps_of_domain tree domain)

let rec foreign_share_lineage tree ~domain c =
  (match Cap.Captree.origin tree c, Cap.Captree.parent tree c with
  | Some Cap.Captree.Orig_shared, Some p -> (
    match Cap.Captree.owner tree p with Some o -> o <> domain | None -> false)
  | _ -> false)
  ||
  match Cap.Captree.parent tree c with
  | Some p -> foreign_share_lineage tree ~domain p
  | None -> false

let measured_exposures t ~domain ranges =
  List.concat_map
    (fun range ->
      let res = Cap.Resource.Memory range in
      let holders = Cap.Captree.holders t.tree res in
      (* Revoked from the domain: no longer in use, promise lapses. *)
      if not (List.mem domain holders) then []
      else if
        List.exists
          (foreign_share_lineage t.tree ~domain)
          (caps_overlapping t.tree domain res)
      then []
      else
        List.filter_map
          (fun h ->
            if
              h = domain
              || List.exists
                   (fun cap ->
                     match Cap.Captree.parent t.tree cap with
                     | Some p -> chain_owned_by t.tree domain p
                     | None -> false)
                   (caps_overlapping t.tree h res)
            then None
            else Some (range, h))
          holders)
    ranges

let seal t ~caller ~domain =
  let* d = get_domain t domain in
  let* () = configurable ~caller ~domain d in
  match Domain.entry_point d with
  | None -> Error (Domain_config "cannot seal a domain without an entry point")
  | Some _ when measured_exposures t ~domain (Domain.measured_ranges d) <> [] ->
    Error (Denied "a measured region is already reachable by a foreign domain")
  | Some entry ->
    let ranges =
      List.map
        (fun r ->
          let pages = (Hw.Addr.Range.len r + Hw.Addr.page_size - 1) / Hw.Addr.page_size in
          Hw.Cycles.charge t.machine.Hw.Machine.counter
            (pages * Hw.Cycles.Cost.measurement_per_page);
          (r, Hw.Physmem.measure t.machine.Hw.Machine.mem r))
        (Domain.measured_ranges d)
    in
    let digest =
      Measure.domain_digest ~kind:(Domain.kind d) ~entry_point:entry
        ~flush_on_transition:(Domain.flush_on_transition d) ~ranges
    in
    (match Domain.seal d ~measurement:digest with
    | Ok () ->
      (* The digest hashes memory contents, which are not durable: the
         record carries the result so replay can install it verbatim. *)
      log_op t
        (Journal.Seal_digest { caller; domain; measurement = Crypto.Sha256.to_raw digest });
      Ok ()
    | Error e -> Error (Domain_config e))

let running_on_some_core t domain =
  Array.exists (fun d -> d = domain) t.current
  || Array.exists (List.mem domain) t.stacks

(* Destruction is factored into three pieces so a multi-shard
   coordinator can run them as phases of a two-phase commit: the guards
   (read-only), the revocation cascade (journaled — must run inside a
   transaction bracket), and the table removals (infallible, NOT
   journaled — they must only run once the commit decision is final). *)
let destroy_guard t ~caller ~domain =
  let* d = get_domain t domain in
  if domain = Domain.initial then Error (Denied "domain 0 cannot be destroyed")
  else if Domain.created_by d <> Some caller then
    Error (Denied "only the creator may destroy a domain")
  else if running_on_some_core t domain then
    Error (Denied "domain is running or on a return stack")
  else if Domain.is_migrating d then
    Error (Denied "domain is mid-migration: only the migration may retire it")
  else Ok d

let revoke_all_of t ~domain =
  let rec revoke_all () =
    (* Inactive capabilities too: delegations the domain made from
       granted-away pieces must cascade with it. *)
    match Cap.Captree.all_caps_of_domain t.tree domain with
    | [] -> Ok ()
    | cap :: _ ->
      let* () =
        cap_result t (Result.map (fun e -> ((), e)) (Cap.Captree.revoke t.tree cap))
      in
      revoke_all ()
  in
  revoke_all ()

let forget_domain t d =
  t.backend.Backend_intf.domain_destroyed d;
  Hashtbl.remove t.domains (Domain.id d);
  Hashtbl.remove t.attest_cache (Domain.id d)

let destroy_domain t ~caller ~domain =
  let* d = destroy_guard t ~caller ~domain in
  (* One transaction for the whole teardown: a fault in the middle of
     the revocation cascade must leave every capability (and the
     hardware) exactly as before the call. The table removals are
     infallible and run last, so they need no undo. *)
  let record = Journal.Call { caller; call = Op.Destroy { domain } } in
  with_txn ~record t (fun () ->
      let* () = revoke_all_of t ~domain in
      forget_domain t d;
      Ok ())

(* Live-migration freeze: the source (and, pre-commit, the target)
   monitor latches the domain and freezes every capability it holds, so
   nothing can run it, reconfigure it, attach to it, or mutate/revoke
   its holdings while the image is in flight. The latch is volatile by
   design — a crash clears it and the migration journal re-freezes on
   resume — so [freeze_domain] must be idempotent. *)

let freeze_domain t ~domain =
  let* d = get_domain t domain in
  if domain = Domain.initial then Error (Denied "domain 0 cannot migrate")
  else if running_on_some_core t domain then
    Error (Denied "domain is running or on a return stack")
  else begin
    Domain.set_migrating d true;
    List.iter
      (fun cap -> match Cap.Captree.freeze t.tree cap with Ok () | Error _ -> ())
      (Cap.Captree.all_caps_of_domain t.tree domain);
    Ok ()
  end

let thaw_domain t ~domain =
  let* d = get_domain t domain in
  Domain.set_migrating d false;
  List.iter
    (fun cap -> Cap.Captree.thaw t.tree cap)
    (Cap.Captree.all_caps_of_domain t.tree domain);
  Ok ()

let domain_frozen t ~domain =
  match get_domain t domain with Ok d -> Domain.is_migrating d | Error _ -> false

(* Capability operations *)

let caps_of t domain = Cap.Captree.caps_of_domain t.tree domain

let owned_by t ~caller cap =
  match Cap.Captree.owner t.tree cap with
  | Some o when o = caller -> Ok ()
  | Some _ -> Error (Denied "caller does not own this capability")
  | None -> Error (Cap_error (Cap.Captree.No_such_capability cap))

let attach_target t ~caller ~to_ ~resource =
  let* target = get_domain t to_ in
  (* Sealing freezes the domain's *memory* footprint (its identity and
     confidentiality surface). Cores and devices stay dynamically
     delegable — scheduling and hot-plug are runtime decisions — and
     remain fully visible in attestation refcounts. *)
  if Domain.is_migrating target then
    Error (Denied "target domain is mid-migration: nothing can attach to it")
  else if Domain.is_sealed target && to_ <> caller && Cap.Resource.is_memory resource then
    Error (Denied "target domain is sealed: its memory cannot be extended")
  else Ok target

let validate_attach t target resource =
  Result.map_error
    (fun msg -> Backend_refused msg)
    (t.backend.Backend_intf.validate_attach target resource)

let share t ~caller ~cap ~to_ ~rights ~cleanup ?subrange () =
  let* () = owned_by t ~caller cap in
  let* resource =
    match Cap.Captree.resource t.tree cap, subrange with
    | Some (Cap.Resource.Memory _), Some sub -> Ok (Cap.Resource.Memory sub)
    | Some r, None -> Ok r
    | Some _, Some _ -> Error (Cap_error Cap.Captree.Bad_subrange)
    | None, _ -> Error (Cap_error (Cap.Captree.No_such_capability cap))
  in
  let* target = attach_target t ~caller ~to_ ~resource in
  let* () = validate_attach t target resource in
  let record = Journal.Call { caller; call = Op.Share { cap; to_; rights; cleanup; subrange } } in
  with_txn ~record t (fun () ->
      cap_result t (Cap.Captree.share t.tree cap ~to_ ~rights ~cleanup ?subrange ()))

let grant t ~caller ~cap ~to_ ~rights ~cleanup =
  let* () = owned_by t ~caller cap in
  let* resource =
    match Cap.Captree.resource t.tree cap with
    | Some r -> Ok r
    | None -> Error (Cap_error (Cap.Captree.No_such_capability cap))
  in
  let* target = attach_target t ~caller ~to_ ~resource in
  let* () = validate_attach t target resource in
  let record = Journal.Call { caller; call = Op.Grant { cap; to_; rights; cleanup } } in
  with_txn ~record t (fun () ->
      cap_result t (Cap.Captree.grant t.tree cap ~to_ ~rights ~cleanup))

let split t ~caller ~cap ~at =
  let* () = owned_by t ~caller cap in
  let record = Journal.Call { caller; call = Op.Split { cap; at } } in
  with_txn ~record t (fun () ->
      match Cap.Captree.split t.tree cap ~at with
      | Ok (l, r, effects) ->
        let* () = apply_effects t effects in
        Ok (l, r)
      | Error e -> Error (Cap_error e))

let carve t ~caller ~cap ~subrange =
  let* () = owned_by t ~caller cap in
  let record = Journal.Call { caller; call = Op.Carve { cap; subrange } } in
  with_txn ~record t (fun () ->
      cap_result t (Cap.Captree.carve t.tree cap ~subrange))

let may_revoke t ~caller cap =
  let rec walk id =
    match Cap.Captree.owner t.tree id with
    | Some o when o = caller -> true
    | _ -> (
      match Cap.Captree.parent t.tree id with Some p -> walk p | None -> false)
  in
  if walk cap then Ok ()
  else Error (Denied "caller owns neither the capability nor an ancestor")

(* Cascade accounting for the revocation histograms: how deep and how
   wide the lineage subtree about to be revoked is. Read-only, and only
   when tracing is on — the disabled cost is one branch. *)
let cascade_shape t cap =
  let rec walk id depth (n, deepest) =
    let acc = (n + 1, max depth deepest) in
    List.fold_left
      (fun acc child -> walk child (depth + 1) acc)
      acc (Cap.Captree.children t.tree id)
  in
  walk cap 1 (0, 0)

let cascade_depth_h = Obs.Metrics.histogram "revoke.cascade_depth"
let cascade_size_h = Obs.Metrics.histogram "revoke.cascade_size"
let cascade_cycles_h = Obs.Metrics.histogram "revoke.cascade_cycles"
let cascade_cycles_per_victim_h = Obs.Metrics.histogram "revoke.cascade_cycles_per_victim"

let revoke t ~caller ~cap =
  let* () = may_revoke t ~caller cap in
  (* Only actual cascades (derived children exist) are worth the cycle
     reads and histogram observes; a leaf revoke under tracing must stay
     as cheap as it was before the cascade breakdown existed. *)
  let obs = ref false in
  let size = ref 0 in
  if Obs.enabled () then begin
    let s, depth = cascade_shape t cap in
    if s > 1 then begin
      obs := true;
      size := s;
      Obs.Metrics.observe cascade_depth_h depth;
      Obs.Metrics.observe cascade_size_h s
    end
  end;
  let obs = !obs in
  (* Simulated hardware cost of the cascade: the detach/reattach effects
     charge calibrated cycles, so the delta isolates how the per-victim
     cost scales with fanout — deterministic, unlike wall time. *)
  let c0 = if obs then Hw.Machine.cycles t.machine else 0 in
  let r =
    let record = Journal.Call { caller; call = Op.Revoke { cap } } in
    with_txn ~record t (fun () ->
        cap_result t (Result.map (fun e -> ((), e)) (Cap.Captree.revoke t.tree cap)))
  in
  if obs && Result.is_ok r then begin
    let dc = Hw.Machine.cycles t.machine - c0 in
    Obs.Metrics.observe cascade_cycles_h dc;
    if !size > 0 then Obs.Metrics.observe cascade_cycles_per_victim_h (dc / !size)
  end;
  r

(* Transitions *)

let check_core t core =
  if core < 0 || core >= Array.length t.current then
    Error (Bad_transition (Printf.sprintf "no such core: %d" core))
  else Ok ()

let current_domain t ~core = t.current.(core)

let call_depth t ~core = List.length t.stacks.(core)

let holds_core t domain core =
  List.mem domain (Cap.Captree.holders t.tree (Cap.Resource.Cpu_core core))

let do_transition t ~core ~from_ ~to_ =
  let flush = Domain.flush_on_transition from_ || Domain.flush_on_transition to_ in
  let cpu = Hw.Machine.core t.machine core in
  (* Hardware first: if the backend cannot switch the translation
     context (PMP budget, an injected fault), the core must keep
     running [from_] with its registers untouched. Only after the
     hardware committed is the register file context-switched — the
     outgoing domain's registers saved (its VMCS/trap frame), the
     incoming domain's restored, or a zeroed file on first entry so no
     register content ever leaks across a domain boundary. *)
  match t.backend.Backend_intf.transition ~core:cpu ~from_ ~to_ ~flush_microarch:flush with
  | Error msg -> Error (Backend_failure msg)
  | Ok path ->
    Hashtbl.replace t.reg_contexts (Domain.id from_, core) (Hw.Cpu.save_regs cpu);
    (match Hashtbl.find_opt t.reg_contexts (Domain.id to_, core) with
    | Some saved -> Hw.Cpu.load_regs cpu saved
    | None -> Hw.Cpu.clear_regs cpu);
    t.transitions <- t.transitions + 1;
    Ok path

let call t ~core ~target =
  let* () = check_core t core in
  let from_id = t.current.(core) in
  let* from_ = get_domain t from_id in
  let* to_ = get_domain t target in
  if target = from_id then Error (Bad_transition "domain is already running here")
  else if Domain.is_migrating to_ then
    Error (Bad_transition "target domain is mid-migration")
  else if not (Domain.is_sealed to_) && target <> Domain.initial then
    Error (Bad_transition "target domain is not sealed")
  else if Domain.entry_point to_ = None && target <> Domain.initial then
    Error (Bad_transition "target domain has no entry point")
  else if not (holds_core t target core) then
    Error (Bad_transition "target domain holds no capability for this core")
  else
    with_txn ~record:(Journal.Transition { core; call = Op.Call { target } }) t (fun () ->
        let* path = do_transition t ~core ~from_ ~to_ in
        t.stacks.(core) <- from_id :: t.stacks.(core);
        t.current.(core) <- target;
        Ok path)

let ret t ~core =
  let* () = check_core t core in
  (* A stack entry whose core capability was revoked while it was
     suspended must not be resumed: skip it (the scheduling-guarantee
     rule applies to returns, not just fresh calls). *)
  let rec pop = function
    | [] -> Error (Bad_transition "no return target holds this core")
    | prev :: rest when not (holds_core t prev core) -> pop rest
    | prev :: rest -> Ok (prev, rest)
  in
  let* prev, rest = pop t.stacks.(core) in
  let* from_ = get_domain t t.current.(core) in
  let* to_ = get_domain t prev in
  with_txn ~record:(Journal.Transition { core; call = Op.Return }) t (fun () ->
      let* path = do_transition t ~core ~from_ ~to_ in
      t.stacks.(core) <- rest;
      t.current.(core) <- prev;
      Ok path)

let timer_tick t ~core =
  let* () = check_core t core in
  let running = t.current.(core) in
  if holds_core t running core then Ok running
  else begin
    (* The squatter lost its core capability: evict. Prefer the unique
       exclusive holder; fall back to domain 0 when it holds the core. *)
    let holders = Cap.Captree.holders t.tree (Cap.Resource.Cpu_core core) in
    let* heir =
      match holders with
      | [ d ] -> Ok d
      | ds when List.mem Domain.initial ds -> Ok Domain.initial
      | [] -> Error (Bad_transition "no domain holds this core")
      | d :: _ -> Ok d
    in
    let* from_ = get_domain t running in
    let* to_ = get_domain t heir in
    (* Only the eviction branch mutates state, so only it is logged;
       the no-op fast path above leaves the log untouched. *)
    with_txn ~record:(Journal.Timer_tick { core }) t (fun () ->
        let* _path = do_transition t ~core ~from_ ~to_ in
        t.stacks.(core) <- [];
        t.current.(core) <- heir;
        Log.info (fun m ->
            m "timer evicted domain#%d from core %d for domain#%d" running core heir);
        Ok heir)
  end

let route_interrupt t ~caller ~device ~vector ~core =
  let* () = check_core t core in
  let holds resource =
    List.mem caller (Cap.Captree.holders t.tree resource)
  in
  if not (holds (Cap.Resource.Device device)) then
    Error (Denied "caller holds no capability for the device")
  else if not (holds (Cap.Resource.Cpu_core core)) then
    Error (Denied "caller holds no capability for the target core")
  else begin
    let ic = t.machine.Hw.Machine.interrupts in
    Hw.Interrupt.permit ic ~device ~vector;
    Hw.Interrupt.route ic ~vector ~core;
    Ok ()
  end

(* Register access for the domain currently on a core. *)

let get_reg t ~core i =
  let* () = check_core t core in
  match Hw.Cpu.get_reg (Hw.Machine.core t.machine core) i with
  | v -> Ok v
  | exception Invalid_argument msg -> Error (Denied msg)

let set_reg t ~core i v =
  let* () = check_core t core in
  match Hw.Cpu.set_reg (Hw.Machine.core t.machine core) i v with
  | () -> Ok ()
  | exception Invalid_argument msg -> Error (Denied msg)

(* Domain-context memory access *)

let guarded_access t ~core f =
  let* () = check_core t core in
  let cpu = Hw.Machine.core t.machine core in
  match f cpu with
  | v -> Ok v
  | exception Hw.Ept.Violation { gpa; _ } ->
    Error (Denied (Printf.sprintf "EPT violation at 0x%x" gpa))
  | exception Hw.Pmp.Fault { addr; _ } ->
    Error (Denied (Printf.sprintf "PMP fault at 0x%x" addr))
  | exception Hw.Page_table.Fault { vaddr; _ } ->
    Error (Denied (Printf.sprintf "page fault at 0x%x" vaddr))
  | exception Hw.Physmem.Bus_error addr ->
    Error (Denied (Printf.sprintf "bus error at 0x%x" addr))

let load t ~core addr =
  guarded_access t ~core (fun cpu ->
      Hw.Cpu.load cpu t.machine.Hw.Machine.mem ~tlb:t.machine.Hw.Machine.tlb
        ~cache:t.machine.Hw.Machine.cache addr)

let store t ~core addr v =
  guarded_access t ~core (fun cpu ->
      Hw.Cpu.store cpu t.machine.Hw.Machine.mem ~tlb:t.machine.Hw.Machine.tlb
        ~cache:t.machine.Hw.Machine.cache addr v)

let load_string t ~core range =
  guarded_access t ~core (fun cpu ->
      String.init (Hw.Addr.Range.len range) (fun i ->
          Char.chr
            (Hw.Cpu.load cpu t.machine.Hw.Machine.mem ~tlb:t.machine.Hw.Machine.tlb
               ~cache:t.machine.Hw.Machine.cache
               (Hw.Addr.Range.base range + i))))

let store_string t ~core addr s =
  guarded_access t ~core (fun cpu ->
      String.iteri
        (fun i c ->
          Hw.Cpu.store cpu t.machine.Hw.Machine.mem ~tlb:t.machine.Hw.Machine.tlb
            ~cache:t.machine.Hw.Machine.cache (addr + i) (Char.code c))
        s)

(* Attestation *)

(* Enumerate a domain's Fig. 4 attestation body. Parameterized over the
   query functions so the memoized fast path and [attest_reference]
   (full-scan baseline) share one enumeration. *)
let attest_body t ~caps_of ~refcount ~holders ~measured_ranges domain =
  List.fold_left
    (fun (regions, cores, devices) cap ->
      match Cap.Captree.resource t.tree cap, Cap.Captree.rights t.tree cap with
      | Some (Cap.Resource.Memory r as res), Some rights ->
        let report =
          { Attestation.range = r;
            perm = rights.Cap.Rights.perm;
            refcount = refcount t.tree res;
            holders = holders t.tree res;
            measured =
              List.exists
                (fun m -> Hw.Addr.Range.includes ~outer:m ~inner:r
                          || Hw.Addr.Range.includes ~outer:r ~inner:m)
                measured_ranges }
        in
        (report :: regions, cores, devices)
      | Some (Cap.Resource.Cpu_core c as res), Some _ ->
        (regions, (c, refcount t.tree res) :: cores, devices)
      | Some (Cap.Resource.Device dev as res), Some _ ->
        (regions, cores, (dev, refcount t.tree res) :: devices)
      | _ -> (regions, cores, devices))
    ([], [], [])
    (caps_of t.tree domain)

(* Memoized body lookup shared by the single and batched paths. *)
let memoized_body t d domain =
  let measured_ranges = Domain.measured_ranges d in
  let generation = Cap.Captree.generation t.tree in
  match Hashtbl.find_opt t.attest_cache domain with
  | Some e when e.at_generation = generation && e.at_measured = measured_ranges ->
    t.body_hits <- t.body_hits + 1;
    (e.at_regions, e.at_cores, e.at_devices)
  | _ ->
    t.body_misses <- t.body_misses + 1;
    let ((regions, cores, devices) as body) =
      attest_body t ~caps_of:Cap.Captree.caps_of_domain ~refcount:Cap.Captree.refcount
        ~holders:Cap.Captree.holders ~measured_ranges domain
    in
    Hashtbl.replace t.attest_cache domain
      { at_generation = generation; at_measured = measured_ranges;
        at_regions = regions; at_cores = cores; at_devices = devices };
    body

(* The memoized body alone, without signing: the sharded front end
   collects one body per shard, translates them into the global
   namespace and signs the concatenation once. *)
let attest_body_of t ~domain =
  let* d = get_domain t domain in
  Ok (memoized_body t d domain)

let attest t ~caller ~domain ~nonce =
  let* _ = get_domain t caller in
  let* d = get_domain t domain in
  let regions, cores, devices = memoized_body t d domain in
  t.attests <- t.attests + 1;
  Ok
    (Attestation.sign ~signer:t.signer ~domain:d ~regions ~cores ~devices
       ~memory_encrypted:(t.backend.Backend_intf.domain_encrypted d) ~nonce)

let attest_spec t ~caller ~domain ~nonce =
  let* _ = get_domain t caller in
  let* d = get_domain t domain in
  let regions, cores, devices = memoized_body t d domain in
  t.attests <- t.attests + 1;
  Ok
    (Attestation.sign_spec ~signer:t.signer ~domain:d ~regions ~cores ~devices
       ~memory_encrypted:(t.backend.Backend_intf.domain_encrypted d) ~nonce)

let attest_batch t ~caller ~domains ~nonce =
  let* _ = get_domain t caller in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | id :: rest ->
      let* d = get_domain t id in
      let regions, cores, devices = memoized_body t d id in
      collect
        ((d, regions, cores, devices, t.backend.Backend_intf.domain_encrypted d) :: acc)
        rest
  in
  let* entries = collect [] domains in
  t.attests <- t.attests + 1;
  Ok (Attestation.sign_batch ~signer:t.signer ~nonce entries)

let attest_reference t ~caller ~domain ~nonce =
  let* _ = get_domain t caller in
  let* d = get_domain t domain in
  let regions, cores, devices =
    attest_body t ~caps_of:Cap.Captree.caps_of_domain_reference
      ~refcount:Cap.Captree.refcount_reference ~holders:Cap.Captree.holders_reference
      ~measured_ranges:(Domain.measured_ranges d) domain
  in
  Ok
    (Attestation.sign ~signer:t.signer ~domain:d ~regions ~cores ~devices
       ~memory_encrypted:(t.backend.Backend_intf.domain_encrypted d) ~nonce)

let boot_quote t ~nonce =
  Rot.Tpm.Quote.generate t.tpm ~pcrs:[ 0; 4; Rot.Tpm.drtm_pcr; key_binding_pcr ] ~nonce

(* Telemetry *)

type attest_telemetry = {
  attests : int;
  body_cache_hits : int;
  body_cache_misses : int;
  keypool_hits : int;
  keypool_misses : int;
  keypool_miss_rate : float;
  keypool_stock : int;
}

let attest_telemetry t =
  let keypool_hits, keypool_misses, keypool_miss_rate, keypool_stock =
    match t.keypool with
    | Some pool ->
      let hits, misses = Crypto.Keypool.stats pool in
      (hits, misses, Crypto.Keypool.miss_rate pool, Crypto.Keypool.size pool)
    | None -> (0, 0, 0., 0)
  in
  { attests = t.attests;
    body_cache_hits = t.body_hits;
    body_cache_misses = t.body_misses;
    keypool_hits;
    keypool_misses;
    keypool_miss_rate;
    keypool_stock }

(* The full observability report (per-domain op counts, latency
   percentiles, cascade depths, rollback counters). The data is
   process-global — the monitor's own ops dominate it, but faults,
   keypool and store activity triggered outside an API call appear
   too, which is the point of attestation-adjacent accounting. *)
(* The taint oracle lives below the Obs dependency line (hw cannot see
   obs), so its tallies are mirrored into gauges here, at report time —
   [session.stale], [byz.*] and friends land in the same report via
   the ordinary counter registry. *)
let g_taint_pages = Obs.Metrics.gauge "taint.pages"
let g_taint_lines = Obs.Metrics.gauge "taint.lines"
let g_taint_tlb = Obs.Metrics.gauge "taint.tlb"
let g_taint_leaks = Obs.Metrics.gauge "taint.leaks"
let g_taint_sanctioned = Obs.Metrics.gauge "taint.sanctioned"

let observe t =
  let st = Hw.Taint.stats t.machine.Hw.Machine.taint in
  Obs.Metrics.set_gauge g_taint_pages st.Hw.Taint.tainted_pages;
  Obs.Metrics.set_gauge g_taint_lines st.Hw.Taint.tainted_lines;
  Obs.Metrics.set_gauge g_taint_tlb st.Hw.Taint.tainted_tlb;
  Obs.Metrics.set_gauge g_taint_leaks st.Hw.Taint.leaks;
  Obs.Metrics.set_gauge g_taint_sanctioned st.Hw.Taint.sanctioned;
  Obs.report ()

(* Durability: enable, checkpoint, recover (crash-restart). *)

let make_persist_cfg t ~store ~snapshot_every ~fsync_every ~latency_bound =
  if snapshot_every <= 0 then invalid_arg "Monitor.enable_persistence: snapshot_every";
  if fsync_every <= 0 then invalid_arg "Monitor.enable_persistence: fsync_every";
  if latency_bound <= 0 then invalid_arg "Monitor.enable_persistence: latency_bound";
  let group =
    Persist.Group.create ~max_batch:fsync_every ~latency_bound
      ~now:(fun () -> Hw.Machine.cycles t.machine)
      store ~blob:Persist.Store.wal_blob ~durable_seq:0
  in
  { p_store = store;
    p_snapshot_every = snapshot_every;
    p_group = group;
    p_seq = 0;
    p_since_snapshot = 0;
    p_replaying = false;
    p_ckpt_gen = 0;
    p_seg_cache = Hashtbl.create 32;
    p_seg_durable = Hashtbl.create 32;
    p_tails_ok = false }

let enable_persistence t ~store ?(snapshot_every = 1000) ?(fsync_every = 1)
    ?(latency_bound = max_int) () =
  let cfg = make_persist_cfg t ~store ~snapshot_every ~fsync_every ~latency_bound in
  t.persist <- Some cfg;
  (* Baseline checkpoint at seq 0: from here on the store can always
     answer "newest snapshot + WAL suffix", even before the first
     cadence-driven checkpoint. Incremental, so it also seeds the
     segment cache. *)
  write_checkpoint t cfg

let persist_seq t = match t.persist with Some cfg -> Some cfg.p_seq | None -> None

let persist_snapshot t =
  match t.persist with
  | None -> invalid_arg "Monitor.persist_snapshot: persistence is not enabled"
  | Some cfg -> write_snapshot t cfg

let checkpoint t =
  match t.persist with
  | None -> invalid_arg "Monitor.checkpoint: persistence is not enabled"
  | Some cfg -> write_checkpoint t cfg

let flush t =
  match t.persist with
  | None -> ()
  | Some cfg -> Persist.Group.flush cfg.p_group

let durable_seq t =
  match t.persist with
  | Some cfg -> Some (Persist.Group.durable_seq cfg.p_group)
  | None -> None

type recovery_report = {
  rr_snapshot_seq : int;
  rr_snapshots_scanned : int;
  rr_snapshot_torn : bool;
  rr_wal_records : int;
  rr_replayed : int;
  rr_wal_truncated : bool;
  rr_stopped_early : string option;
  rr_seq : int;
}

let pp_recovery_report fmt r =
  Format.fprintf fmt
    "@[<v>snapshot: seq %d (%d scanned%s)@,\
     wal: %d records, %d replayed%s%s@,\
     recovered through seq %d@]"
    r.rr_snapshot_seq r.rr_snapshots_scanned
    (if r.rr_snapshot_torn then ", torn tail" else "")
    r.rr_wal_records r.rr_replayed
    (if r.rr_wal_truncated then ", torn tail discarded" else "")
    (match r.rr_stopped_early with
    | Some why -> Printf.sprintf ", stopped early: %s" why
    | None -> "")
    r.rr_seq

(* Replay a [Seal] record. The normal [seal] path re-measures memory,
   but memory contents are not durable — the record carries the digest
   the original call produced, and replay installs it verbatim. *)
let replay_seal t ~caller ~domain ~measurement =
  let* d = Result.map_error error_to_string (get_domain t domain) in
  let* () = Result.map_error error_to_string (creator_or_self ~caller ~domain d) in
  if String.length measurement <> Crypto.Sha256.digest_size then
    Error "seal record carries a malformed digest"
  else Domain.seal d ~measurement:(Crypto.Sha256.of_raw measurement)

(* Verbatim digest install for coordinators that measured elsewhere:
   the sharded monitor measures each global range on its owning shard,
   folds one digest at the front end and installs it on every shard.
   Validation is identical to replay. *)
let install_seal = replay_seal

(* Seal an adopted (migrated-in) domain under the measurement the source
   machine took: the bytes were copied verbatim, so re-measuring here
   would only re-derive the same digest — but the *identity* must be the
   one the transfer receipt binds. Unlike [install_seal] this is a
   first-class logged operation: the target's own WAL replays it, so a
   crash-restart of the adopting monitor recovers the sealed domain. *)
let adopt_seal t ~caller ~domain ~measurement =
  let raw = Crypto.Sha256.to_raw measurement in
  match replay_seal t ~caller ~domain ~measurement:raw with
  | Ok () ->
    log_op t (Journal.Seal_digest { caller; domain; measurement = raw });
    Ok ()
  | Error e -> Error (Domain_config e)

(* The call interface as data: one entry point from an {!Op.call} to
   the monitor function it names. [Api.dispatch] and WAL replay both go
   through it. [Call]/[Return] additionally require the caller to be the
   domain currently running on [core] — the identity the trapping
   hardware reports. *)
let exec t ~caller ~core (op : Op.call) : (Op.result_value, error) result =
  let current () =
    if current_domain t ~core = caller then Ok ()
    else Error (Bad_transition "caller is not current on this core")
  in
  match op with
  | Op.Create_domain { name; kind } ->
    Result.map (fun d -> Op.R_domain d) (create_domain t ~caller ~name ~kind)
  | Op.Set_entry_point { domain; entry } ->
    Result.map (fun () -> Op.R_unit) (set_entry_point t ~caller ~domain entry)
  | Op.Set_flush_policy { domain; flush } ->
    Result.map (fun () -> Op.R_unit) (set_flush_policy t ~caller ~domain flush)
  | Op.Mark_measured { domain; range } ->
    Result.map (fun () -> Op.R_unit) (mark_measured t ~caller ~domain range)
  | Op.Seal { domain } -> Result.map (fun () -> Op.R_unit) (seal t ~caller ~domain)
  | Op.Destroy { domain } -> Result.map (fun () -> Op.R_unit) (destroy_domain t ~caller ~domain)
  | Op.Share { cap; to_; rights; cleanup; subrange } ->
    Result.map (fun c -> Op.R_cap c) (share t ~caller ~cap ~to_ ~rights ~cleanup ?subrange ())
  | Op.Grant { cap; to_; rights; cleanup } ->
    Result.map (fun c -> Op.R_cap c) (grant t ~caller ~cap ~to_ ~rights ~cleanup)
  | Op.Split { cap; at } ->
    Result.map (fun (a, b) -> Op.R_cap_pair (a, b)) (split t ~caller ~cap ~at)
  | Op.Carve { cap; subrange } -> Result.map (fun c -> Op.R_cap c) (carve t ~caller ~cap ~subrange)
  | Op.Revoke { cap } -> Result.map (fun () -> Op.R_unit) (revoke t ~caller ~cap)
  | Op.Enumerate -> Ok (Op.R_caps (caps_of t caller))
  | Op.Attest { domain; nonce } ->
    Result.map (fun a -> Op.R_attestation a) (attest t ~caller ~domain ~nonce)
  | Op.Call { target } ->
    let* () = current () in
    Result.map (fun p -> Op.R_path p) (call t ~core ~target)
  | Op.Return ->
    let* () = current () in
    Result.map (fun p -> Op.R_path p) (ret t ~core)

(* Re-execute one journal record through the normal entry points
   (logging is muted by [p_replaying]). Every record was appended only
   after the original call committed, so replay against the same
   starting state must succeed; a failure means the log and snapshot
   disagree and replay stops at the last consistent prefix. *)
let replay_record t record =
  let mon r = Result.map_error error_to_string (Result.map ignore r) in
  match record with
  | Journal.Call { caller; call } -> mon (exec t ~caller ~core:0 call)
  | Journal.Transition { core; call } -> mon (exec t ~caller:t.current.(core) ~core call)
  | Journal.Seal_digest { caller; domain; measurement } ->
    replay_seal t ~caller ~domain ~measurement
  | Journal.Timer_tick { core } -> mon (timer_tick t ~core)

(* Child lists travel implicitly: the wire format carries only parent
   pointers (Snapshot.node_spec.n_children is [] off the wire), because
   ids ascend with creation time and every live list is most-recent
   first — so one ascending scan that prepends each node onto its
   parent rebuilds exactly the order the tree maintained. The chaos
   harness pins this equivalence: recovered dumps must equal the shadow
   model's byte-for-byte, children included. *)
let reconstruct_children nodes =
  let children = Hashtbl.create 256 in
  let sorted =
    List.sort
      (fun (a : Persist.Snapshot.node_spec) (b : Persist.Snapshot.node_spec) ->
        Int.compare a.n_id b.n_id)
      nodes
  in
  List.iter
    (fun (n : Persist.Snapshot.node_spec) ->
      if n.n_parent >= 0 then
        Hashtbl.replace children n.n_parent
          (n.n_id
          :: (match Hashtbl.find_opt children n.n_parent with
             | Some l -> l
             | None -> [])))
    sorted;
  List.map
    (fun (n : Persist.Snapshot.node_spec) ->
      { n with
        n_children =
          (match Hashtbl.find_opt children n.n_id with Some l -> l | None -> []) })
    nodes

(* Install a decoded snapshot into a fresh monitor shell. *)
let restore_state t (s : Persist.Snapshot.t) =
  let rec conv_domains = function
    | [] -> Ok ()
    | (d : Persist.Snapshot.domain_spec) :: rest -> (
      match Domain.kind_of_int d.d_kind with
      | None -> Error (Printf.sprintf "snapshot: unknown kind %d for domain %d" d.d_kind d.d_id)
      | Some kind ->
        let* measurement =
          if d.d_measurement = "" then Ok None
          else if String.length d.d_measurement = Crypto.Sha256.digest_size then
            Ok (Some (Crypto.Sha256.of_raw d.d_measurement))
          else Error (Printf.sprintf "snapshot: malformed measurement for domain %d" d.d_id)
        in
        Hashtbl.replace t.domains d.d_id
          (Domain.restore ~id:d.d_id ~name:d.d_name ~kind
             ~created_by:(if d.d_created_by < 0 then None else Some d.d_created_by)
             ~sealed:d.d_sealed
             ~entry_point:(if d.d_entry < 0 then None else Some d.d_entry)
             ~measured:(List.map pair_range d.d_measured)
             ~flush_on_transition:d.d_flush ~measurement);
        conv_domains rest)
  in
  let rec conv_nodes acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> (
      match node_of_wire n with
      | Ok ns -> conv_nodes (ns :: acc) rest
      | Error _ as e -> e)
  in
  let ncores = Array.length t.current in
  if List.length s.Persist.Snapshot.current <> ncores
     || List.length s.Persist.Snapshot.stacks <> ncores then
    Error
      (Printf.sprintf "snapshot: recorded %d cores, this machine has %d"
         (List.length s.Persist.Snapshot.current) ncores)
  else begin
    Hashtbl.reset t.domains;
    let* () = conv_domains s.Persist.Snapshot.domains in
    t.next_domain <- s.Persist.Snapshot.next_domain;
    let* specs = conv_nodes [] (reconstruct_children s.Persist.Snapshot.nodes) in
    t.tree <-
      Cap.Captree.restore ~next_id:s.Persist.Snapshot.next_cap
        ~generation:s.Persist.Snapshot.generation specs;
    List.iteri (fun i d -> t.current.(i) <- d) s.Persist.Snapshot.current;
    List.iteri (fun i st -> t.stacks.(i) <- st) s.Persist.Snapshot.stacks;
    Ok specs
  end

(* Hardware is deliberately not serialized: the tree is the source of
   truth, so EPT/PMP/IOMMU/MMIO state is re-derived by registering every
   domain and re-attaching every *active* capability — minus the
   detach/attach churn of the history. Memory holdings are coalesced per
   (owner, permission) before attaching: a long history fragments the
   tree into many small active nodes whose live hardware footprint was
   nevertheless a few merged translation entries, and re-attaching them
   one-by-one can exceed a finite budget (PMP entries) the live layout
   never needed. The coalesced union is the minimal representation of
   exactly the same coverage. [Fsck.check] then cross-checks the result
   against the tree, exactly as the runtime invariant does. *)
let coalesce ranges =
  let sorted =
    List.sort (fun a b -> Int.compare (Hw.Addr.Range.base a) (Hw.Addr.Range.base b)) ranges
  in
  match sorted with
  | [] -> []
  | first :: rest ->
    let merged, last =
      List.fold_left
        (fun (done_, cur) r ->
          if Hw.Addr.Range.base r <= Hw.Addr.Range.limit cur then
            let limit = max (Hw.Addr.Range.limit cur) (Hw.Addr.Range.limit r) in
            ( done_,
              Hw.Addr.Range.make ~base:(Hw.Addr.Range.base cur)
                ~len:(limit - Hw.Addr.Range.base cur) )
          else (cur :: done_, r))
        ([], first) rest
    in
    List.rev (last :: merged)

let rebuild_hardware t specs =
  List.iter (fun d -> t.backend.Backend_intf.domain_created d) (domains t);
  let active = List.filter (fun (ns : Cap.Captree.node_spec) -> ns.ns_state = Cap.Captree.Active) specs in
  (* Memory attaches, grouped by (owner, perm) and coalesced; group
     order follows the first node of each group, keeping the rebuild
     deterministic. *)
  let groups = ref [] in
  List.iter
    (fun (ns : Cap.Captree.node_spec) ->
      match ns.ns_resource with
      | Cap.Resource.Memory r ->
        let key = (ns.ns_owner, ns.ns_rights.Cap.Rights.perm) in
        (match List.assoc_opt key !groups with
        | Some rs -> rs := r :: !rs
        | None -> groups := !groups @ [ (key, ref [ r ]) ])
      | _ -> ())
    active;
  let attach_all effs =
    List.fold_left
      (fun acc (label, eff) ->
        let* () = acc in
        match t.backend.Backend_intf.apply_effect eff with
        | Ok () -> Ok ()
        | Error msg -> Error (Printf.sprintf "recovery: re-attach of %s failed: %s" label msg))
      (Ok ()) effs
  in
  let mem_effects =
    List.concat_map
      (fun ((owner, perm), rs) ->
        List.map
          (fun r ->
            ( Format.asprintf "domain %d memory %a" owner Hw.Addr.Range.pp r,
              Cap.Captree.Attach
                { domain = owner; resource = Cap.Resource.Memory r; perm } ))
          (coalesce !rs))
      !groups
  in
  let other_effects =
    List.filter_map
      (fun (ns : Cap.Captree.node_spec) ->
        match ns.ns_resource with
        | Cap.Resource.Memory _ -> None
        | res ->
          Some
            ( Printf.sprintf "cap %d" ns.ns_id,
              Cap.Captree.Attach
                { domain = ns.ns_owner; resource = res; perm = ns.ns_rights.Cap.Rights.perm }
            ))
      active
  in
  (* Restore the per-core schedule before re-attaching: backends enforce
     per-domain hardware budgets (PMP entries) only for running domains,
     and a fresh backend boots with every core on the OS. Re-attaching
     first would eagerly charge the OS's whole layout against cores the
     recovered schedule gives to other domains — a budget check the live
     run never performed. *)
  let missing = ref None in
  Array.iteri
    (fun i cpu ->
      if !missing = None then
        match find_domain t t.current.(i) with
        | Some d -> t.backend.Backend_intf.launch ~core:cpu d
        | None ->
          missing := Some (Printf.sprintf "recovery: core %d runs unknown domain %d" i t.current.(i)))
    t.machine.Hw.Machine.cores;
  match !missing with
  | Some e -> Error e
  | None -> attach_all (mem_effects @ other_effects)

let recover ?(signer_height = 6) ?keypool ?(snapshot_every = 1000) ?(fsync_every = 1)
    ?(latency_bound = max_int) machine ~store ~backend ~tpm ~rng ~monitor_range =
  let loaded = Persist.Snapshot.load_latest_ex store in
  let snap = loaded.Persist.Snapshot.snapshot in
  let scanned = loaded.Persist.Snapshot.scanned in
  let snap_torn = loaded.Persist.Snapshot.torn in
  let wal = Persist.Wal.read store ~blob:Persist.Store.wal_blob in
  let t = make_monitor ~signer_height ?keypool machine ~backend ~tpm ~rng in
  Obs.set_clock (fun () -> Hw.Machine.cycles machine);
  let cfg = make_persist_cfg t ~store ~snapshot_every ~fsync_every ~latency_bound in
  (* Seed the incremental-checkpoint caches from the durable segment
     blob and the winning manifest, so the closing checkpoint below
     re-serializes only what replay dirtied. A restored tree reports
     every bucket clean ([bucket_generation] = 0), which is exactly
     right: the manifest covers it. *)
  Hashtbl.iter
    (fun h _nodes -> Hashtbl.replace cfg.p_seg_durable h ())
    (Persist.Snapshot.segment_index store);
  List.iter
    (fun (b, h) -> Hashtbl.replace cfg.p_seg_cache b h)
    loaded.Persist.Snapshot.manifest_segments;
  (match snap with
  | Some s -> cfg.p_ckpt_gen <- s.Persist.Snapshot.generation
  | None -> ());
  (* Reconstruction re-executes operations that already committed once;
     re-injecting API-level faults would fail them a second time and
     diverge from the durable history, so injection is masked — exactly
     like the backends' rollback paths. The closing checkpoint below
     runs unmasked: it is new durable work and may legitimately crash
     (leaving the old snapshot and un-reset WAL, still recoverable). *)
  let setup =
    Fault.suspend (fun () ->
        let* base_seq =
          match snap with
          | Some s ->
            let* specs = restore_state t s in
            let* () = rebuild_hardware t specs in
            Ok s.Persist.Snapshot.seq
          | None ->
            (* No decodable snapshot: fall back to the boot baseline —
               the state [enable_persistence] captured at seq 0 — and
               replay the whole log. *)
            endow_initial t ~monitor_range;
            Ok 0
        in
        cfg.p_seq <- base_seq;
        t.persist <- Some cfg;
        cfg.p_replaying <- true;
        let applied, stopped =
          Fun.protect
            ~finally:(fun () -> cfg.p_replaying <- false)
            (fun () -> Journal.replay ~base_seq wal.Persist.Wal.records (replay_record t))
        in
        cfg.p_seq <- base_seq + applied;
        Ok (applied, stopped))
  in
  match setup with
  | Error why -> Error why
  | Ok (applied, stopped) ->
    (match stopped with
    | Some why -> Log.warn (fun m -> m "recovery stopped replay early: %s" why)
    | None -> ());
    if wal.Persist.Wal.truncated then
      Log.warn (fun m ->
          m "recovery discarded a torn WAL tail after %d valid bytes"
            wal.Persist.Wal.valid_bytes);
    (* Checkpoint the recovered state so the store is snapshot-current
       and the (possibly torn) WAL suffix is retired. Incremental: with
       the caches seeded above, only buckets the replay dirtied are
       re-serialized. *)
    write_checkpoint t cfg;
    let report =
      { rr_snapshot_seq = (match snap with Some s -> s.Persist.Snapshot.seq | None -> -1);
        rr_snapshots_scanned = scanned;
        rr_snapshot_torn = snap_torn;
        rr_wal_records = List.length wal.Persist.Wal.records;
        rr_replayed = applied;
        rr_wal_truncated = wal.Persist.Wal.truncated || stopped <> None;
        rr_stopped_early = stopped;
        rr_seq = cfg.p_seq }
    in
    Log.info (fun m -> m "recovered: %a" pp_recovery_report report);
    Ok (t, report)
