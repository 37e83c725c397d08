(* Durability layer tests: CRC framing, WAL truncation semantics
   (qcheck over random cut points and bit flips), directed crash-restart
   recovery on both backends, and the fault plan/suspend re-entrancy
   contract the store's injection points rely on. *)

open Testkit

let os = Tyche.Domain.initial

(* --- fixtures -------------------------------------------------------- *)

(* A fresh machine/backend/tpm for recovery to rebuild onto (the crashed
   monitor's in-memory state is gone; only the store survives). The
   measured boot is deterministic, so the monitor range matches the
   original machine's. *)
let fresh_target arch =
  match arch with
  | `X86 ->
    let machine = Hw.Machine.create ~arch:Hw.Cpu.X86_64 ~cores:4 ~mem_size:(16 * 1024 * 1024) () in
    let rng = Crypto.Rng.create ~seed:0x99L in
    let tpm = Rot.Tpm.create rng in
    let br = Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image in
    (machine, Backend_x86.create machine (), tpm, rng, br.Rot.Boot.monitor_range)
  | `Riscv ->
    let machine = Hw.Machine.create ~arch:Hw.Cpu.Riscv64 ~cores:2 ~mem_size:(16 * 1024 * 1024) () in
    let rng = Crypto.Rng.create ~seed:0x98L in
    let tpm = Rot.Tpm.create rng in
    let br = Rot.Boot.measured_boot tpm machine ~firmware ~loader:loader_blob ~monitor_image in
    let backend = Backend_riscv.create machine ~monitor_range:br.Rot.Boot.monitor_range () in
    (machine, backend, tpm, rng, br.Rot.Boot.monitor_range)

let boot_arch = function `X86 -> boot_x86 () | `Riscv -> boot_riscv ()

let recover_from arch store =
  let machine, backend, tpm, rng, monitor_range = fresh_target arch in
  Tyche.Monitor.recover machine ~store ~backend ~tpm ~rng ~monitor_range

(* Ten committed operations covering every record family the WAL can
   carry except destroy/timer (exercised separately and by chaos). *)
let workload w =
  let m = w.monitor in
  let sbx =
    get_ok (Tyche.Monitor.create_domain m ~caller:os ~name:"sbx" ~kind:Tyche.Domain.Sandbox)
  in
  let mem = os_memory_cap w in
  let tree = Tyche.Monitor.tree m in
  let base =
    match Cap.Captree.resource tree mem with
    | Some (Cap.Resource.Memory r) -> Hw.Addr.Range.base r
    | _ -> Alcotest.fail "os memory cap is not memory"
  in
  let sub = Hw.Addr.Range.make ~base ~len:4096 in
  let carved = get_ok (Tyche.Monitor.carve m ~caller:os ~cap:mem ~subrange:sub) in
  let _ =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:carved ~to_:sbx ~rights:Cap.Rights.rw
         ~cleanup:Cap.Revocation.Zero ())
  in
  let core0 = os_core_cap w 0 in
  let _ =
    get_ok
      (Tyche.Monitor.share m ~caller:os ~cap:core0 ~to_:sbx ~rights:Cap.Rights.full
         ~cleanup:Cap.Revocation.Keep ())
  in
  get_ok (Tyche.Monitor.set_entry_point m ~caller:os ~domain:sbx base);
  get_ok (Tyche.Monitor.set_flush_policy m ~caller:os ~domain:sbx true);
  get_ok (Tyche.Monitor.mark_measured m ~caller:os ~domain:sbx sub);
  get_ok (Tyche.Monitor.seal m ~caller:os ~domain:sbx);
  let _ = get_ok (Tyche.Monitor.call m ~core:0 ~target:sbx) in
  let _ = get_ok (Tyche.Monitor.ret m ~core:0) in
  sbx

let workload_ops = 10

(* Structural fingerprint of everything the durability layer promises to
   preserve: the tree (nodes, lineage, counters), domain configuration,
   and per-core scheduling. *)
let fingerprint m =
  let tree = Tyche.Monitor.tree m in
  let doms =
    List.map
      (fun d ->
        ( Tyche.Domain.id d,
          Tyche.Domain.name d,
          Tyche.Domain.kind d,
          Tyche.Domain.created_by d,
          Tyche.Domain.is_sealed d,
          Tyche.Domain.entry_point d,
          Tyche.Domain.measured_ranges d,
          Tyche.Domain.flush_on_transition d,
          Option.map Crypto.Sha256.to_raw (Tyche.Domain.measurement d) ))
      (Tyche.Monitor.domains m)
  in
  let ncores = Array.length (Tyche.Monitor.machine m).Hw.Machine.cores in
  let sched =
    List.init ncores (fun core ->
        (Tyche.Monitor.current_domain m ~core, Tyche.Monitor.call_depth m ~core))
  in
  (Cap.Captree.dump tree, Cap.Captree.next_id tree, doms, sched)

let check_fingerprint_eq a b =
  Alcotest.(check bool) "recovered state structurally identical" true (a = b)

let attest_all m =
  List.map
    (fun d ->
      let id = Tyche.Domain.id d in
      (id, get_ok (Tyche.Monitor.attest m ~caller:os ~domain:id ~nonce:"fsck-nonce")))
    (Tyche.Monitor.domains m)

let check_fsck ?baseline m =
  let r = Tyche.Fsck.check ?baseline m in
  if not (Tyche.Fsck.ok r) then
    Alcotest.failf "fsck: %s" (Format.asprintf "%a" Tyche.Fsck.pp r)

(* --- CRC and framing -------------------------------------------------- *)

let test_crc_vectors () =
  Alcotest.(check int) "crc32(123456789)" 0xCBF43926 (Persist.Crc32.digest "123456789");
  Alcotest.(check int) "crc32(empty)" 0 (Persist.Crc32.digest "");
  Alcotest.(check int) "digest_sub agrees" (Persist.Crc32.digest "456")
    (Persist.Crc32.digest_sub "123456789" ~pos:3 ~len:3)

let test_frame_roundtrip () =
  let records = [ (1, "alpha"); (2, ""); (3, String.make 300 'x') ] in
  let blob = String.concat "" (List.map (fun (seq, p) -> Persist.Wal.frame ~seq p) records) in
  let r = Persist.Wal.parse blob in
  Alcotest.(check bool) "not truncated" false r.Persist.Wal.truncated;
  Alcotest.(check int) "valid bytes" (String.length blob) r.Persist.Wal.valid_bytes;
  Alcotest.(check (list (pair int string))) "records" records r.Persist.Wal.records

let test_op_roundtrip () =
  let rights =
    { Cap.Rights.perm = { Hw.Perm.read = true; write = false; exec = true };
      can_share = false;
      can_grant = true }
  in
  let range base len = Hw.Addr.Range.make ~base ~len in
  let by caller call = Tyche.Journal.Call { caller; call } in
  let records =
    [ by 0 (Tyche.Op.Create_domain { name = "enclave-1"; kind = Tyche.Domain.Enclave });
      by 0 (Tyche.Op.Set_entry_point { domain = 3; entry = 0x40_0000 });
      by 1 (Tyche.Op.Set_flush_policy { domain = 3; flush = true });
      by 0 (Tyche.Op.Mark_measured { domain = 3; range = range 4096 8192 });
      Tyche.Journal.Seal_digest { caller = 0; domain = 3; measurement = String.make 32 '\x7f' };
      by 0 (Tyche.Op.Destroy { domain = 3 });
      by 0
        (Tyche.Op.Share
           { cap = 7; to_ = 3; rights; cleanup = Cap.Revocation.Zero;
             subrange = Some (range 0 4096) });
      by 0
        (Tyche.Op.Share
           { cap = 7; to_ = 3; rights; cleanup = Cap.Revocation.Keep; subrange = None });
      by 2
        (Tyche.Op.Grant { cap = 9; to_ = 4; rights; cleanup = Cap.Revocation.Zero_and_flush });
      by 0 (Tyche.Op.Split { cap = 5; at = 12288 });
      by 0 (Tyche.Op.Carve { cap = 5; subrange = range 4096 4096 });
      by 0 (Tyche.Op.Revoke { cap = 11 });
      Tyche.Journal.Transition { core = 1; call = Tyche.Op.Call { target = 3 } };
      Tyche.Journal.Transition { core = 1; call = Tyche.Op.Return };
      Tyche.Journal.Timer_tick { core = 0 } ]
  in
  List.iter
    (fun record ->
      let back = Tyche.Journal.decode (Tyche.Journal.encode record) in
      Alcotest.(check bool)
        (Format.asprintf "%a" Tyche.Journal.pp record)
        true (record = back))
    records

(* A pool of valid framed records to cut and corrupt. *)
let sample_blob n =
  let buf = Buffer.create 256 in
  for seq = 1 to n do
    Buffer.add_string buf
      (Persist.Wal.frame ~seq (Printf.sprintf "payload-%d-%s" seq (String.make (seq mod 7) 'z')))
  done;
  Buffer.contents buf

let is_prefix_of shorter longer =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && go xs ys
  in
  go shorter longer

let qcheck_truncation =
  let full = sample_blob 20 in
  let all = (Persist.Wal.parse full).Persist.Wal.records in
  QCheck.Test.make ~name:"wal: every cut recovers a prefix, never raises" ~count:300
    QCheck.(int_bound (String.length full))
    (fun cut ->
      let r = Persist.Wal.parse (String.sub full 0 cut) in
      if not (is_prefix_of r.Persist.Wal.records all) then
        QCheck.Test.fail_reportf "cut %d: not a prefix" cut;
      if r.Persist.Wal.valid_bytes > cut then
        QCheck.Test.fail_reportf "cut %d: trusted bytes beyond the cut" cut;
      true)

let qcheck_bitflip =
  let full = sample_blob 20 in
  let all = (Persist.Wal.parse full).Persist.Wal.records in
  QCheck.Test.make ~name:"wal: any single bit flip yields a clean prefix" ~count:300
    QCheck.(pair (int_bound (String.length full - 1)) (int_bound 7))
    (fun (pos, bit) ->
      let b = Bytes.of_string full in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      let r = Persist.Wal.parse (Bytes.to_string b) in
      (* The flipped record (or one of its successors, if the flip
         landed in a length field) must not survive verbatim AND the
         result must still be a prefix of the original history. *)
      if not (is_prefix_of r.Persist.Wal.records all) then
        QCheck.Test.fail_reportf "flip at %d.%d: corrupt record admitted" pos bit;
      true)

(* --- directed recovery ------------------------------------------------ *)

let test_clean_recover arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  let baseline = attest_all w.monitor in
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  Alcotest.(check int) "all records replayed" workload_ops report.Tyche.Monitor.rr_replayed;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck ~baseline m2;
  check_no_violations m2

let test_crash_on_append arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  (match Fault.with_plan (Fault.nth "wal.append" 5) (fun () -> ignore (workload w)) with
  | () -> Alcotest.fail "expected a crash at the 5th append"
  | exception Persist.Store.Crash _ -> ());
  let m2, report = get_ok_str (recover_from arch store) in
  (* Records 1-4 were fsynced; the torn 5th record survives only if the
     deterministic tear kept all its bytes. Either way: a consistent
     prefix, never more. *)
  let seq = report.Tyche.Monitor.rr_seq in
  if seq < 4 || seq > 5 then Alcotest.failf "recovered seq %d outside the 4-5 window" seq;
  check_fsck m2;
  check_no_violations m2

let test_fsync_loses_pending arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ~fsync_every:3 ();
  let fp_baseline = fingerprint w.monitor in
  (match Fault.with_plan (Fault.always "wal.fsync") (fun () -> ignore (workload w)) with
  | () -> Alcotest.fail "expected a crash at the first fsync"
  | exception Persist.Store.Crash _ -> ());
  let m2, report = get_ok_str (recover_from arch store) in
  (* The first fsync (after record 3) lost the whole pending buffer:
     nothing but the boot baseline is durable. *)
  Alcotest.(check int) "all unsynced records lost" 0 report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp_baseline (fingerprint m2);
  check_fsck m2

let test_crash_on_snapshot arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  let baseline = attest_all w.monitor in
  (match
     Fault.with_plan (Fault.always "snapshot.write") (fun () ->
         Tyche.Monitor.persist_snapshot w.monitor)
   with
  | () -> Alcotest.fail "expected a crash during the snapshot"
  | exception Persist.Store.Crash _ -> ());
  (* The torn snapshot is detected and skipped; the WAL was not yet
     reset, so recovery lands on the exact pre-crash state — and a fresh
     attestation over it is byte-identical in body to one taken before
     the crash (the acceptance criterion, checked literally here). *)
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  Alcotest.(check bool) "snapshot tail seen as torn" true report.Tyche.Monitor.rr_snapshot_torn;
  check_fingerprint_eq fp (fingerprint m2);
  List.iter
    (fun (domain, pre) ->
      let post = get_ok (Tyche.Monitor.attest m2 ~caller:os ~domain ~nonce:"fsck-nonce") in
      Alcotest.(check bool)
        (Printf.sprintf "attest body identical for domain %d" domain)
        true
        (Tyche.Fsck.body_equal pre post))
    baseline;
  check_fsck ~baseline m2

let test_crash_during_recovery arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  (* First recovery attempt dies writing its own closing checkpoint
     (reconstruction itself runs with injection suspended). The store
     must still hold the old snapshot and un-reset WAL... *)
  (match Fault.with_plan (Fault.always "snapshot.write") (fun () -> recover_from arch store) with
  | Ok _ -> Alcotest.fail "expected the recovery checkpoint to crash"
  | Error e -> Alcotest.failf "recovery failed instead of crashing: %s" e
  | exception Persist.Store.Crash _ -> ());
  (* ...so a second attempt succeeds from the same bytes. *)
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

let test_checkpoint_repairs_torn_tail arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  (match
     Fault.with_plan (Fault.always "snapshot.write") (fun () ->
         Tyche.Monitor.persist_snapshot w.monitor)
   with
  | () -> Alcotest.fail "expected a crash during the snapshot"
  | exception Persist.Store.Crash _ -> ());
  (* The first restart replays the WAL past the torn snapshot tail and
     closes with a checkpoint. That checkpoint must repair the tail
     before appending: a snapshot left after the tear would be durable
     yet invisible to the newest-valid scan, and the WAL reset that
     follows it would destroy the only other copy of the history. *)
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "first restart: seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp (fingerprint m2);
  (* A second restart must land on the same state from the checkpoint
     alone — before tail repair it found only the boot-time snapshot and
     an empty WAL. *)
  let m3, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "second restart: seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  Alcotest.(check int) "second restart: nothing to replay" 0 report.Tyche.Monitor.rr_replayed;
  check_fingerprint_eq fp (fingerprint m3);
  check_fsck m3

let test_no_valid_snapshot arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  (* Same durable WAL, but a snapshot stream of garbage: recovery must
     fall back to the boot baseline and replay the whole log. *)
  let wrecked =
    Persist.Store.mem
      ~wal:(Persist.Store.read store Persist.Store.wal_blob)
      ~snap:"this is not a snapshot stream" ()
  in
  let m2, report = get_ok_str (recover_from arch wrecked) in
  Alcotest.(check int) "no snapshot used" (-1) report.Tyche.Monitor.rr_snapshot_seq;
  Alcotest.(check bool) "garbage detected" true report.Tyche.Monitor.rr_snapshot_torn;
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

let test_destroy_and_snapshot_cadence arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  (* Snapshot every 4 ops: the workload (10) plus a destroy (11) crosses
     two checkpoints, so recovery replays only the post-snapshot tail. *)
  Tyche.Monitor.enable_persistence w.monitor ~store ~snapshot_every:4 ();
  let sbx = workload w in
  get_ok (Tyche.Monitor.destroy_domain w.monitor ~caller:os ~domain:sbx);
  let fp = fingerprint w.monitor in
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "seq recovered" 11 report.Tyche.Monitor.rr_seq;
  Alcotest.(check bool) "replayed only the suffix" true (report.Tyche.Monitor.rr_replayed <= 3);
  Alcotest.(check int) "snapshot at the last multiple of 4" 8
    report.Tyche.Monitor.rr_snapshot_seq;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

(* --- group commit ----------------------------------------------------- *)

let get_durable m =
  match Tyche.Monitor.durable_seq m with
  | Some d -> d
  | None -> Alcotest.fail "durable_seq: persistence should be enabled"

let test_group_commit_ack_floor arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  (* Batch of 4: the 10-op workload flushes after ops 4 and 8; 9 and 10
     stay pending until the explicit flush. *)
  Tyche.Monitor.enable_persistence w.monitor ~store ~fsync_every:4 ();
  let _ = workload w in
  Alcotest.(check int) "acked through the last full batch" 8 (get_durable w.monitor);
  Tyche.Monitor.flush w.monitor;
  Alcotest.(check int) "flush acknowledges the tail" workload_ops (get_durable w.monitor);
  let fp = fingerprint w.monitor in
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "every acknowledged op recovered" workload_ops
    report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

let test_group_commit_unacked_may_drop arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ~fsync_every:4 ();
  let _ = workload w in
  (* Crash without flushing: ops 9-10 were never acknowledged, so losing
     them is within contract — but everything acknowledged must survive. *)
  let acked = get_durable w.monitor in
  Alcotest.(check int) "two ops pending at crash" 8 acked;
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check bool) "acked floor honored"
    true
    (report.Tyche.Monitor.rr_seq >= acked);
  Alcotest.(check int) "exactly the durable batches recovered" acked
    report.Tyche.Monitor.rr_seq;
  check_fsck m2

let test_group_commit_latency_bound arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  (* Huge batch, 1-cycle latency bound: the first append after any
     simulated-cycle progress must flush the batch — the call at op 9
     charges transition cycles, so by then everything is durable. *)
  Tyche.Monitor.enable_persistence w.monitor ~store ~fsync_every:1000 ~latency_bound:1 ();
  let _ = workload w in
  let d = get_durable w.monitor in
  if d < 9 || d > workload_ops then
    Alcotest.failf "latency bound never flushed: durable_seq = %d" d

(* --- incremental checkpoints, compaction, GC -------------------------- *)

let test_wal_compaction arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ~snapshot_every:4 ();
  let _ = workload w in
  (* Cadence checkpoints at seq 4 and 8 compacted their prefixes: only
     the suffix the newest manifest does not cover remains. *)
  let wal = Persist.Wal.read store ~blob:Persist.Store.wal_blob in
  Alcotest.(check (list int)) "wal holds only the uncovered suffix" [ 9; 10 ]
    (List.map fst wal.Persist.Wal.records);
  Tyche.Monitor.checkpoint w.monitor;
  let wal = Persist.Wal.read store ~blob:Persist.Store.wal_blob in
  Alcotest.(check int) "wal empty after explicit checkpoint" 0
    (List.length wal.Persist.Wal.records);
  let fp = fingerprint w.monitor in
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  Alcotest.(check int) "manifest current, nothing to replay" 0
    report.Tyche.Monitor.rr_replayed;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

let test_incremental_dedup arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  Tyche.Monitor.checkpoint w.monitor;
  let segs_len () = String.length (Persist.Store.read store Persist.Store.seg_blob) in
  let before = segs_len () in
  (* No mutation between checkpoints: content addressing must recognize
     every bucket and append zero new segment bytes. *)
  Tyche.Monitor.checkpoint w.monitor;
  Tyche.Monitor.checkpoint w.monitor;
  Alcotest.(check int) "clean checkpoints append no segments" before (segs_len ());
  (* A mutation dirties exactly one bucket: the delta is one segment,
     not a full tree serialization. *)
  get_ok (Tyche.Monitor.set_flush_policy w.monitor ~caller:os ~domain:os false);
  Tyche.Monitor.checkpoint w.monitor;
  Alcotest.(check int) "domain-only change writes no segments" before (segs_len ())

let test_segment_gc arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let peer =
    get_ok
      (Tyche.Monitor.create_domain w.monitor ~caller:os ~name:"gc-peer"
         ~kind:Tyche.Domain.Sandbox)
  in
  let mem = os_memory_cap w in
  (* Each round shares a fresh cap (new id -> new bucket contents) and
     checkpoints: distinct segment versions pile up in the blob until
     the GC threshold trips and the rewrite keeps only live hashes. *)
  for _ = 1 to 14 do
    let _ =
      get_ok
        (Tyche.Monitor.share w.monitor ~caller:os ~cap:mem ~to_:peer
           ~rights:Cap.Rights.read_only ~cleanup:Cap.Revocation.Keep ())
    in
    Tyche.Monitor.checkpoint w.monitor
  done;
  let live = Hashtbl.length (Persist.Snapshot.segment_index store) in
  if live > 6 then Alcotest.failf "segment GC never ran: %d segment versions durable" live;
  let fp = fingerprint w.monitor in
  let m2, _ = get_ok_str (recover_from arch store) in
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

let test_crash_mid_segment_write arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  (match
     Fault.with_plan (Fault.always "segment.write") (fun () ->
         Tyche.Monitor.checkpoint w.monitor)
   with
  | () -> Alcotest.fail "expected a crash during the segment write"
  | exception Persist.Store.Crash _ -> ());
  (* Torn segment bytes are unreferenced garbage: the old manifest and
     the intact WAL reconstruct the exact pre-crash state. *)
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

let test_crash_mid_manifest_swap arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  (match
     Fault.with_plan (Fault.always "manifest.swap") (fun () ->
         Tyche.Monitor.checkpoint w.monitor)
   with
  | () -> Alcotest.fail "expected a crash during the manifest swap"
  | exception Persist.Store.Crash _ -> ());
  (* The manifest — the checkpoint's commit point — is torn: recovery
     must skip it and fall back to the previous record plus the WAL. *)
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

(* --- directory-fsync crash window (store file backend) ---------------- *)

let test_crash_on_dir_fsync arch () =
  let w = boot_arch arch in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  (* The checkpoint's WAL retirement dies before its rename/truncation
     is durable: snapshot new, WAL old. Replay filters the covered
     records, so the double coverage is benign. *)
  (match
     Fault.with_plan (Fault.nth "store.dir_fsync" 1) (fun () ->
         Tyche.Monitor.persist_snapshot w.monitor)
   with
  | () -> Alcotest.fail "expected a crash at the directory barrier"
  | exception Persist.Store.Crash _ -> ());
  let wal = Persist.Wal.read store ~blob:Persist.Store.wal_blob in
  Alcotest.(check int) "wal survived un-retired" workload_ops
    (List.length wal.Persist.Wal.records);
  let m2, report = get_ok_str (recover_from arch store) in
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  Alcotest.(check int) "covered records filtered, not replayed" 0
    report.Tyche.Monitor.rr_replayed;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2

let test_dir_fsync_on_file_store () =
  let dir = "tyche-dirsync-test" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let w = boot_x86 () in
  let store = Persist.Store.file ~dir in
  let before = Obs.Metrics.counter_value "store.dir_fsync" in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  Tyche.Monitor.persist_snapshot w.monitor;
  (* File creation and every WAL-retiring rename must be followed by a
     parent-directory fsync, or the checkpoint can vanish on power
     loss — the counter proves the barrier actually ran. *)
  let dir_fsyncs = Obs.Metrics.counter_value "store.dir_fsync" - before in
  if dir_fsyncs < 2 then
    Alcotest.failf "expected directory fsyncs on create+rename, saw %d" dir_fsyncs;
  (* And the same crash window as the mem test, on the real filesystem. *)
  let fp = fingerprint w.monitor in
  (match
     Fault.with_plan (Fault.nth "store.dir_fsync" 1) (fun () ->
         Tyche.Monitor.persist_snapshot w.monitor)
   with
  | () -> Alcotest.fail "expected a crash at the directory barrier"
  | exception Persist.Store.Crash _ -> ());
  let reopened = Persist.Store.file ~dir in
  let m2, report = get_ok_str (recover_from `X86 reopened) in
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_file_store_roundtrip () =
  let dir = "tyche-store-test" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let w = boot_x86 () in
  let store = Persist.Store.file ~dir in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let fp = fingerprint w.monitor in
  (* Reopen the directory cold, as a restarted process would. *)
  let reopened = Persist.Store.file ~dir in
  let m2, report = get_ok_str (recover_from `X86 reopened) in
  Alcotest.(check int) "seq recovered" workload_ops report.Tyche.Monitor.rr_seq;
  check_fingerprint_eq fp (fingerprint m2);
  check_fsck m2;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* Monitor-level truncation semantics: recovery from ANY prefix of the
   durable WAL (including mid-record cuts) and any single bit flip must
   succeed, pass fsck, and recover at most the full history. *)
let qcheck_monitor_truncation =
  let w = boot_x86 () in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let wal = Persist.Store.read store Persist.Store.wal_blob in
  let snap = Persist.Store.read store Persist.Store.snap_blob in
  QCheck.Test.make ~name:"monitor: recovery from any WAL cut is prefix-consistent" ~count:25
    QCheck.(int_bound (String.length wal))
    (fun cut ->
      let cut_store = Persist.Store.mem ~wal:(String.sub wal 0 cut) ~snap () in
      match recover_from `X86 cut_store with
      | Error e -> QCheck.Test.fail_reportf "cut %d: recovery failed: %s" cut e
      | Ok (m2, report) ->
        if report.Tyche.Monitor.rr_seq > workload_ops then
          QCheck.Test.fail_reportf "cut %d: recovered beyond history" cut;
        let r = Tyche.Fsck.check m2 in
        if not (Tyche.Fsck.ok r) then
          QCheck.Test.fail_reportf "cut %d: fsck: %s" cut (Format.asprintf "%a" Tyche.Fsck.pp r);
        true)

let qcheck_monitor_bitflip =
  let w = boot_x86 () in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let _ = workload w in
  let wal = Persist.Store.read store Persist.Store.wal_blob in
  let snap = Persist.Store.read store Persist.Store.snap_blob in
  QCheck.Test.make ~name:"monitor: recovery survives any WAL bit flip" ~count:25
    QCheck.(pair (int_bound (String.length wal - 1)) (int_bound 7))
    (fun (pos, bit) ->
      let b = Bytes.of_string wal in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      let flip_store = Persist.Store.mem ~wal:(Bytes.to_string b) ~snap () in
      match recover_from `X86 flip_store with
      | Error e -> QCheck.Test.fail_reportf "flip %d.%d: recovery failed: %s" pos bit e
      | Ok (m2, _) ->
        let r = Tyche.Fsck.check m2 in
        if not (Tyche.Fsck.ok r) then
          QCheck.Test.fail_reportf "flip %d.%d: fsck: %s" pos bit
            (Format.asprintf "%a" Tyche.Fsck.pp r);
        true)

(* --- fault plan/suspend re-entrancy (satellite check) ----------------- *)

let reentry_point = Fault.register "test.persist.reentry"

let test_suspend_nests () =
  Alcotest.(check bool) "not suspended initially" false (Fault.suspended ());
  Fault.suspend (fun () ->
      Alcotest.(check bool) "suspended" true (Fault.suspended ());
      Fault.suspend (fun () ->
          Alcotest.(check bool) "still suspended when nested" true (Fault.suspended ()));
      Alcotest.(check bool) "inner exit keeps outer suspension" true (Fault.suspended ()));
  Alcotest.(check bool) "fully restored" false (Fault.suspended ())

let test_suspend_restores_on_raise () =
  (try Fault.suspend (fun () -> raise Exit) with Exit -> ());
  Alcotest.(check bool) "suspension released after raise" false (Fault.suspended ());
  Fault.with_plan (Fault.always "test.persist.reentry") (fun () ->
      (try Fault.suspend (fun () -> raise Exit) with Exit -> ());
      match Fault.hit reentry_point with
      | () -> Alcotest.fail "plan should still be armed after suspended raise"
      | exception Fault.Injected _ -> ())

let test_with_plan_restores_on_raise () =
  let inert = Fault.plan [] in
  Fault.with_plan (Fault.always "test.persist.reentry") (fun () ->
      (try Fault.with_plan inert (fun () -> raise Exit) with Exit -> ());
      (* The outer plan must be re-armed, counters and all. *)
      match Fault.hit reentry_point with
      | () -> Alcotest.fail "outer plan not restored after inner raise"
      | exception Fault.Injected _ -> ());
  (* And fully disarmed outside every scope. *)
  Fault.hit reentry_point;
  Alcotest.(check bool) "disarmed" false (Fault.enabled ())

let test_store_points_registered () =
  let names = List.map Fault.name (Fault.points ()) in
  List.iter
    (fun n -> Alcotest.(check bool) n true (List.mem n names))
    [ "wal.append"; "wal.fsync"; "snapshot.write"; "segment.write"; "manifest.swap";
      "store.dir_fsync" ]

(* --- suite ------------------------------------------------------------ *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  let directed name f =
    [ Alcotest.test_case (name ^ " (x86)") `Quick (f `X86);
      Alcotest.test_case (name ^ " (riscv)") `Quick (f `Riscv) ]
  in
  Alcotest.run "persist"
    [ ( "framing",
        [ Alcotest.test_case "crc32 vectors" `Quick test_crc_vectors;
          Alcotest.test_case "frame/parse roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "op codec roundtrip" `Quick test_op_roundtrip;
          qt qcheck_truncation;
          qt qcheck_bitflip ] );
      ( "recovery",
        directed "clean recover" test_clean_recover
        @ directed "crash at wal.append" test_crash_on_append
        @ directed "fsync loses pending" test_fsync_loses_pending
        @ directed "crash at snapshot.write" test_crash_on_snapshot
        @ directed "crash during recovery checkpoint" test_crash_during_recovery
        @ directed "checkpoint repairs torn snapshot tail" test_checkpoint_repairs_torn_tail
        @ directed "no valid snapshot" test_no_valid_snapshot
        @ directed "destroy + snapshot cadence" test_destroy_and_snapshot_cadence
        @ [ Alcotest.test_case "file store cold reopen" `Quick test_file_store_roundtrip;
            qt qcheck_monitor_truncation;
            qt qcheck_monitor_bitflip ] );
      ( "group commit",
        directed "ack floor + explicit flush" test_group_commit_ack_floor
        @ directed "unacked batch may drop, never tear" test_group_commit_unacked_may_drop
        @ directed "latency bound forces flush" test_group_commit_latency_bound );
      ( "incremental checkpoints",
        directed "wal compaction" test_wal_compaction
        @ directed "content-addressed dedup" test_incremental_dedup
        @ directed "segment gc" test_segment_gc
        @ directed "crash mid segment write" test_crash_mid_segment_write
        @ directed "crash mid manifest swap" test_crash_mid_manifest_swap );
      ( "directory fsync",
        directed "crash at the rename barrier" test_crash_on_dir_fsync
        @ [ Alcotest.test_case "file backend fsyncs its directory" `Quick
              test_dir_fsync_on_file_store ] );
      ( "fault re-entrancy",
        [ Alcotest.test_case "suspend nests" `Quick test_suspend_nests;
          Alcotest.test_case "suspend restores on raise" `Quick test_suspend_restores_on_raise;
          Alcotest.test_case "with_plan restores on raise" `Quick test_with_plan_restores_on_raise;
          Alcotest.test_case "store points registered" `Quick test_store_points_registered ] ) ]
