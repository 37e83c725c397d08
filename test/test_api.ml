(* The serialized narrow API: wire-format round trips, total parsing,
   and monitor robustness under fuzzed call sequences. *)

open Testkit

let page = Hw.Addr.page_size
let range ~base ~len = Hw.Addr.Range.make ~base ~len

(* Generators *)

let gen_kind =
  QCheck.Gen.oneofl
    [ Tyche.Domain.Os; Tyche.Domain.Sandbox; Tyche.Domain.Enclave;
      Tyche.Domain.Confidential_vm; Tyche.Domain.Io_domain ]

(* Every kind, for the codec: the wire must carry proxies too. *)
let gen_any_kind = QCheck.Gen.oneof [ gen_kind; QCheck.Gen.return Tyche.Domain.Remote ]

(* Names and nonces past the 64 KiB mark, where a 16-bit length prefix
   would silently wrap. *)
let gen_any_string = QCheck.Gen.(oneof [ string_size (0 -- 12); string_size (0 -- 70_000) ])

let gen_rights =
  QCheck.Gen.oneofl
    [ Cap.Rights.full; Cap.Rights.rw; Cap.Rights.rx; Cap.Rights.read_only;
      Cap.Rights.exclusive_use ]

let gen_cleanup =
  QCheck.Gen.oneofl
    [ Cap.Revocation.Keep; Cap.Revocation.Zero; Cap.Revocation.Flush_cache;
      Cap.Revocation.Zero_and_flush ]

let gen_range =
  QCheck.Gen.(
    map2
      (fun b l -> range ~base:(b * page) ~len:((l + 1) * page))
      (0 -- 100) (0 -- 8))

let gen_call_of gen_string gen_kind =
  QCheck.Gen.(
    oneof
      [ map2 (fun name kind -> Tyche.Api.Create_domain { name; kind }) gen_string gen_kind;
        map2 (fun domain entry -> Tyche.Api.Set_entry_point { domain; entry })
          (0 -- 8) (map (fun p -> p * page) (0 -- 100));
        map2 (fun domain flush -> Tyche.Api.Set_flush_policy { domain; flush }) (0 -- 8) bool;
        map2 (fun domain range -> Tyche.Api.Mark_measured { domain; range }) (0 -- 8) gen_range;
        map (fun domain -> Tyche.Api.Seal { domain }) (0 -- 8);
        map (fun domain -> Tyche.Api.Destroy { domain }) (0 -- 8);
        map (fun (cap, to_, rights, cleanup, sub) ->
            Tyche.Api.Share
              { cap; to_; rights; cleanup; subrange = (if to_ mod 2 = 0 then Some sub else None) })
          (tup5 (0 -- 60) (0 -- 8) gen_rights gen_cleanup gen_range);
        map (fun (cap, to_, rights, cleanup) -> Tyche.Api.Grant { cap; to_; rights; cleanup })
          (tup4 (0 -- 60) (0 -- 8) gen_rights gen_cleanup);
        map2 (fun cap at -> Tyche.Api.Split { cap; at = at * page }) (0 -- 60) (0 -- 100);
        map2 (fun cap subrange -> Tyche.Api.Carve { cap; subrange }) (0 -- 60) gen_range;
        map (fun cap -> Tyche.Api.Revoke { cap }) (0 -- 60);
        return Tyche.Api.Enumerate;
        map2 (fun domain nonce -> Tyche.Api.Attest { domain; nonce }) (0 -- 8) gen_string;
        map (fun target -> Tyche.Api.Call { target }) (0 -- 8);
        return Tyche.Api.Return ])

let gen_call = gen_call_of QCheck.Gen.(string_size (0 -- 12)) gen_kind
let arb_call = QCheck.make ~print:(Format.asprintf "%a" Tyche.Api.pp_call) gen_call

let arb_any_call =
  QCheck.make ~print:(Format.asprintf "%a" Tyche.Api.pp_call)
    (gen_call_of gen_any_string gen_any_kind)

(* Wire format *)

let prop_roundtrip =
  QCheck.Test.make ~name:"api: encode/decode roundtrip" ~count:500 arb_any_call (fun call ->
      match Tyche.Api.decode (Tyche.Api.encode call) with
      | Ok call' -> call = call'
      | Error _ -> false)

let prop_decode_total =
  QCheck.Test.make ~name:"api: decode never raises on garbage" ~count:500
    QCheck.(string_of_size Gen.(0 -- 80))
    (fun junk ->
      match Tyche.Api.decode junk with Ok _ -> true | Error _ -> true)

let prop_decode_truncation =
  QCheck.Test.make ~name:"api: truncated encodings are rejected" ~count:200 arb_call
    (fun call ->
      let wire = Tyche.Api.encode call in
      String.length wire <= 1
      ||
      let cut = String.sub wire 0 (String.length wire - 1) in
      match Tyche.Api.decode cut with Error _ -> true | Ok _ -> false)

let test_decode_trailing_garbage () =
  let wire = Tyche.Api.encode Tyche.Api.Enumerate ^ "x" in
  match Tyche.Api.decode wire with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted"

(* A rights byte with a bit above the low five is malformed, not a
   weaker grant: the decoder refuses it. *)
let test_decode_bad_rights () =
  let wire =
    Tyche.Api.encode
      (Tyche.Api.Grant
         { cap = 1; to_ = 2; rights = Cap.Rights.rw; cleanup = Cap.Revocation.Keep })
  in
  (* opcode, cap and target words, then the rights byte *)
  let bad = Bytes.of_string wire in
  Bytes.set bad 17 '\x23';
  match Tyche.Api.decode (Bytes.to_string bad) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown rights bits accepted"

(* What recovery promises to rebuild: the tree and the domain table. *)
let durable_state m =
  ( Cap.Captree.dump (Tyche.Monitor.tree m),
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
      (Tyche.Monitor.domains m) )

(* End-to-end dispatch over the wire *)

let test_dispatch_over_wire () =
  let w = boot_x86 () in
  let m = w.monitor in
  let send caller call =
    let wire = Tyche.Api.encode call in
    match Tyche.Api.decode wire with
    | Error e -> Alcotest.failf "decode failed: %s" e
    | Ok call -> Tyche.Api.dispatch m ~caller ~core:0 call
  in
  (* A full enclave lifecycle driven purely through the byte ABI. *)
  let d =
    match send os (Tyche.Api.Create_domain { name = "wire"; kind = Tyche.Domain.Enclave }) with
    | Ok (Tyche.Api.R_domain d) -> d
    | r -> Alcotest.failf "create: %s" (Format.asprintf "%a" Tyche.Api.pp_response r)
  in
  let big = os_memory_cap w in
  let piece =
    match send os (Tyche.Api.Carve { cap = big; subrange = range ~base:0x40000 ~len:page }) with
    | Ok (Tyche.Api.R_cap c) -> c
    | r -> Alcotest.failf "carve: %s" (Format.asprintf "%a" Tyche.Api.pp_response r)
  in
  (match
     send os
       (Tyche.Api.Grant
          { cap = piece; to_ = d; rights = Cap.Rights.full; cleanup = Cap.Revocation.Zero })
   with
  | Ok (Tyche.Api.R_cap _) -> ()
  | r -> Alcotest.failf "grant: %s" (Format.asprintf "%a" Tyche.Api.pp_response r));
  (match
     send os
       (Tyche.Api.Share
          { cap = os_core_cap w 0; to_ = d; rights = Cap.Rights.exclusive_use;
            cleanup = Cap.Revocation.Keep; subrange = None })
   with
  | Ok _ -> ()
  | r -> Alcotest.failf "share core: %s" (Format.asprintf "%a" Tyche.Api.pp_response r));
  (match send os (Tyche.Api.Set_entry_point { domain = d; entry = 0x40000 }) with
  | Ok Tyche.Api.R_unit -> ()
  | r -> Alcotest.failf "entry: %s" (Format.asprintf "%a" Tyche.Api.pp_response r));
  (match send os (Tyche.Api.Seal { domain = d }) with
  | Ok Tyche.Api.R_unit -> ()
  | r -> Alcotest.failf "seal: %s" (Format.asprintf "%a" Tyche.Api.pp_response r));
  (match send os (Tyche.Api.Call { target = d }) with
  | Ok (Tyche.Api.R_path _) -> ()
  | r -> Alcotest.failf "call: %s" (Format.asprintf "%a" Tyche.Api.pp_response r));
  (* The enclave (now current) enumerates its caps and returns. *)
  (match send d Tyche.Api.Enumerate with
  | Ok (Tyche.Api.R_caps caps) ->
    Alcotest.(check int) "enclave holds memory + core" 2 (List.length caps)
  | r -> Alcotest.failf "enumerate: %s" (Format.asprintf "%a" Tyche.Api.pp_response r));
  (match send d Tyche.Api.Return with
  | Ok (Tyche.Api.R_path _) -> ()
  | r -> Alcotest.failf "return: %s" (Format.asprintf "%a" Tyche.Api.pp_response r));
  (* Attest over the wire. *)
  (match send os (Tyche.Api.Attest { domain = d; nonce = "wire" }) with
  | Ok (Tyche.Api.R_attestation att) ->
    Alcotest.(check bool) "verifies" true
      (Tyche.Attestation.verify ~monitor_root:(Tyche.Monitor.attestation_root m) att)
  | r -> Alcotest.failf "attest: %s" (Format.asprintf "%a" Tyche.Api.pp_response r));
  check_no_violations m

(* A domain name past the 64 KiB mark rides the journal's call codec:
   recovery must replay it, and every record after it. *)
let test_long_name_survives_recovery () =
  let w = boot_x86 () in
  let store = Persist.Store.mem () in
  Tyche.Monitor.enable_persistence w.monitor ~store ();
  let create name =
    match
      Tyche.Api.dispatch w.monitor ~caller:os ~core:0
        (Tyche.Api.Create_domain { name; kind = Tyche.Domain.Sandbox })
    with
    | Ok (Tyche.Api.R_domain _) -> ()
    | r -> Alcotest.failf "create: %s" (Format.asprintf "%a" Tyche.Api.pp_response r)
  in
  create (String.init 70_000 (fun i -> Char.chr (97 + (i mod 26))));
  create "after";
  let m2, report = get_ok_str (recover_like w ~store) in
  Alcotest.(check (option string)) "replayed to the end" None
    report.Tyche.Monitor.rr_stopped_early;
  Alcotest.(check bool) "recovered state equals live" true
    (durable_state m2 = durable_state w.monitor)

(* The wire cannot carry a negative address, so neither may a committed
   call: the journal must be able to record every call that succeeds. *)
let test_negative_entry_refused () =
  let w = boot_x86 () in
  match
    Tyche.Api.dispatch w.monitor ~caller:os ~core:0
      (Tyche.Api.Set_entry_point { domain = os; entry = -4096 })
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative entry point accepted"

let test_dispatch_enforces_core_identity () =
  let w = boot_x86 () in
  (* A caller that is not current on the core cannot transition it. *)
  match Tyche.Api.dispatch w.monitor ~caller:55 ~core:0 (Tyche.Api.Call { target = os }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-current caller transitioned the core"

(* Fuzz: random call sequences never crash the monitor, and the system
   invariants hold afterwards. Callers are drawn at random (often
   unauthorized), targets frequently dangle. *)

(* Every sequence runs on a journaling monitor (mem store): besides
   keeping the invariants, a crash-restart from its store alone must
   rebuild the live tree and domain table. *)
let fuzz_property boot_world calls =
  let w = boot_world () in
  let store = Persist.Store.mem () in
  let m = w.monitor in
  Tyche.Monitor.enable_persistence m ~store ();
  List.iter
    (fun (caller, call) -> ignore (Tyche.Api.dispatch m ~caller ~core:0 call))
    calls;
  (* Drain any transitions the fuzz pushed so teardown-sensitive
     invariants see a quiet machine. *)
  let rec unwind () =
    match Tyche.Monitor.ret m ~core:0 with Ok _ -> unwind () | Error _ -> ()
  in
  unwind ();
  Tyche.Invariants.check_tree m = []
  && Tyche.Invariants.check_refcounts m = []
  && Tyche.Invariants.check_hardware_matches_tree m = []
  &&
  match recover_like w ~store with
  | Error e -> QCheck.Test.fail_reportf "recovery failed: %s" e
  | Ok (m2, report) ->
    (match report.Tyche.Monitor.rr_stopped_early with
    | Some why -> QCheck.Test.fail_reportf "replay stopped early: %s" why
    | None -> ());
    durable_state m2 = durable_state m

let arb_calls = QCheck.(make Gen.(list_size (0 -- 80) (pair (0 -- 6) gen_call)))

let prop_monitor_fuzz =
  QCheck.Test.make ~name:"api: fuzzed call sequences keep invariants (x86)" ~count:50
    arb_calls
    (fuzz_property (fun () -> boot_x86 ~mem_size:(8 * 1024 * 1024) ()))

let prop_monitor_fuzz_riscv =
  QCheck.Test.make ~name:"api: fuzzed call sequences keep invariants (riscv)" ~count:50
    arb_calls
    (fuzz_property (fun () -> boot_riscv ~mem_size:(8 * 1024 * 1024) ()))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "api"
    [ ( "wire",
        [ qt prop_roundtrip;
          qt prop_decode_total;
          qt prop_decode_truncation;
          Alcotest.test_case "trailing garbage" `Quick test_decode_trailing_garbage;
          Alcotest.test_case "unknown rights bits rejected" `Quick test_decode_bad_rights ] );
      ( "dispatch",
        [ Alcotest.test_case "enclave lifecycle over the wire" `Quick test_dispatch_over_wire;
          Alcotest.test_case "core identity enforced" `Quick
            test_dispatch_enforces_core_identity;
          Alcotest.test_case "64 KiB+ domain name survives recovery" `Quick
            test_long_name_survives_recovery;
          Alcotest.test_case "negative entry point refused" `Quick test_negative_entry_refused ] );
      ("fuzz", [ qt prop_monitor_fuzz; qt prop_monitor_fuzz_riscv ]) ]
