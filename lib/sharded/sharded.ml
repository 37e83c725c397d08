(* The sharded monitor: a federation of per-OCaml-Domain monitors
   behind one global namespace (ROADMAP items 3-5; the "millions of
   users" scaling unit).

   Layout. Shard [s] is a complete world — its own machine, backend,
   TPM and {!Monitor.t} — so every hardware write stays shard-local by
   construction. Isolation domains are *replicated*: domain lifecycle
   ops broadcast to every shard (the per-shard [next_domain] counters
   stay in lockstep, so ids agree), while resources live on exactly one
   shard and capability subtrees never cross shards (a share targets a
   domain, and every domain exists on every shard).

   Naming. Global ids are stateless encodings of (shard, local):
     - capability id  g = local lsl 6 lor shard   (max 64 shards)
     - memory address g = shard * 2^40 + local
     - core           g = shard * cores_per_shard + local
   The encoding is shard-count invariant for shard 0: a workload
   confined to shard 0's resources produces byte-identical responses
   under 1 shard and under N — which is exactly what the differential
   harness replays.

   Concurrency. Each shard has a mutex (writers) and a seqlock-style
   write sequence (readers): the indexed queries (refcount, holders,
   caps_of) read optimistically against a pinned sequence and retry on
   interference, so readers never block writers. Cross-shard mutations
   (domain destruction — the revocation cascade touches every shard)
   run a two-phase commit over {!Monitor.txn_begin}/[txn_commit]/
   [txn_rollback]: prepare the journals on every shard, then commit
   all or roll all back. The WAL contract survives unchanged: one
   front-end redo log (global ids, group commit), appended only after
   an operation fully commits. *)

open Tyche

let shard_bits = 6
let max_shards = 1 lsl shard_bits
let addr_stride = 1 lsl 40

type shard = {
  s_index : int;
  s_monitor : Monitor.t;
  s_machine : Hw.Machine.t;
  s_lock : Mutex.t;
  (* Seqlock word: odd while a writer is inside the shard. Writers
     always hold [s_lock]; readers never take it on the fast path. *)
  s_wseq : int Atomic.t;
}

type persist_front = {
  fp_group : Persist.Group.t;
  fp_lock : Mutex.t;
  mutable fp_seq : int;
  mutable fp_replaying : bool;
}

type t = {
  shards : shard array;
  cores_per_shard : int;
  (* Front-end aggregate-attestation signer: one signature over the
     concatenated per-shard bodies. *)
  signer : Crypto.Signature.signer;
  signer_lock : Mutex.t;
  (* Global measured ranges per domain, in declaration order — the
     per-shard domain records only know their local slices. *)
  measured : (Domain.id, Hw.Addr.Range.t list ref) Hashtbl.t;
  meas_lock : Mutex.t;
  mutable attests : int;
  mutable persist : persist_front option;
}

let ( let* ) = Result.bind

(* --- id translation ------------------------------------------------- *)

let gcap ~shard local = (local lsl shard_bits) lor shard
let cap_shard c = c land (max_shards - 1)
let cap_local c = c lsr shard_bits
let gaddr ~shard a = (shard * addr_stride) + a
let addr_shard a = a / addr_stride

let grange ~shard r =
  Hw.Addr.Range.make ~base:(gaddr ~shard (Hw.Addr.Range.base r)) ~len:(Hw.Addr.Range.len r)

let lrange ~shard r =
  Hw.Addr.Range.make
    ~base:(Hw.Addr.Range.base r - (shard * addr_stride))
    ~len:(Hw.Addr.Range.len r)

(* A global subrange is usable only if it sits entirely inside one
   shard's address window. *)
let local_sub ~shard r =
  let b = Hw.Addr.Range.base r and l = Hw.Addr.Range.len r in
  if addr_shard b <> shard || addr_shard (b + l - 1) <> shard then None
  else Some (Hw.Addr.Range.make ~base:(b - (shard * addr_stride)) ~len:l)

let core_shard t core = core / t.cores_per_shard
let core_local t core = core mod t.cores_per_shard
let gcore t ~shard local = (shard * t.cores_per_shard) + local

let resource_shard t = function
  | Cap.Resource.Memory r -> addr_shard (Hw.Addr.Range.base r)
  | Cap.Resource.Cpu_core c -> core_shard t c
  | Cap.Resource.Device _ -> 0 (* devices attach to shard 0 only *)

let local_resource t ~shard = function
  | Cap.Resource.Memory r -> Cap.Resource.Memory (lrange ~shard r)
  | Cap.Resource.Cpu_core c -> Cap.Resource.Cpu_core (c - (shard * t.cores_per_shard))
  | Cap.Resource.Device d -> Cap.Resource.Device d

(* Shard-monitor errors surface local capability ids; translate them
   back into the global namespace before they reach the caller. *)
let tr_cap_error ~shard = function
  | Cap.Captree.No_such_capability c -> Cap.Captree.No_such_capability (gcap ~shard c)
  | Cap.Captree.Capability_inactive c -> Cap.Captree.Capability_inactive (gcap ~shard c)
  | e -> e

let tr_error ~shard = function
  | Monitor.Cap_error e -> Monitor.Cap_error (tr_cap_error ~shard e)
  | e -> e

(* --- locking -------------------------------------------------------- *)

let locked s f = Mutex.protect s.s_lock f

let write s f =
  Mutex.protect s.s_lock (fun () ->
      Atomic.incr s.s_wseq;
      Fun.protect ~finally:(fun () -> Atomic.incr s.s_wseq) f)

(* Optimistic read: pin the shard's write sequence, run the query
   against the live tree, and keep the result only if no writer entered
   in between. A query racing a writer may observe a torn structure and
   raise — that is exactly the "sequence moved" case, so the exception
   is swallowed if and only if the seqlock invalidated the attempt.
   After a few failed attempts, fall back to the shard mutex. *)
let read s f =
  let rec attempt retries =
    if retries = 0 then Mutex.protect s.s_lock f
    else
      let v0 = Atomic.get s.s_wseq in
      if v0 land 1 = 1 then begin
        Stdlib.Domain.cpu_relax ();
        attempt (retries - 1)
      end
      else
        match f () with
        | r when Atomic.get s.s_wseq = v0 -> r
        | _ -> attempt (retries - 1)
        | exception _ when Atomic.get s.s_wseq <> v0 -> attempt (retries - 1)
  in
  attempt 4

(* Whole-federation write bracket: take every shard lock in ascending
   index order (lock-order discipline — no deadlock against the
   single-shard writers) and mark every seqlock. *)
let write_all t f =
  let n = Array.length t.shards in
  let rec go i =
    if i = n then begin
      Array.iter (fun s -> Atomic.incr s.s_wseq) t.shards;
      Fun.protect
        ~finally:(fun () -> Array.iter (fun s -> Atomic.incr s.s_wseq) t.shards)
        f
    end
    else Mutex.protect t.shards.(i).s_lock (fun () -> go (i + 1))
  in
  go 0

(* --- boot ----------------------------------------------------------- *)

let default_shards () =
  match Sys.getenv_opt "TYCHE_SHARDS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 && n <= max_shards -> n
    | _ -> 1)
  | None -> 1

let boot ?shards ?(signer_height = 6) ?keypool ~rng ~mk () =
  let n = match shards with Some n -> n | None -> default_shards () in
  if n < 1 || n > max_shards then
    invalid_arg (Printf.sprintf "Sharded.boot: shard count must be in 1..%d" max_shards);
  let tpm0 = ref None in
  let shards =
    Array.init n (fun i ->
        let machine, backend, tpm, srng, monitor_range = mk ~shard:i in
        if i = 0 then tpm0 := Some tpm;
        let monitor = Monitor.boot ~signer_height machine ~backend ~tpm ~rng:srng ~monitor_range in
        { s_index = i;
          s_monitor = monitor;
          s_machine = machine;
          s_lock = Mutex.create ();
          s_wseq = Atomic.make 0 })
  in
  let cores_per_shard = Array.length shards.(0).s_machine.Hw.Machine.cores in
  Array.iter
    (fun s ->
      if Array.length s.s_machine.Hw.Machine.cores <> cores_per_shard then
        invalid_arg "Sharded.boot: every shard must have the same core count";
      if Hw.Addr.Range.len (Hw.Physmem.full_range s.s_machine.Hw.Machine.mem) > addr_stride
      then invalid_arg "Sharded.boot: shard memory exceeds the address stride")
    shards;
  let signer = Crypto.Signature.create ~height:signer_height ?pool:keypool rng in
  (* Bind the federation's aggregate-attestation key into shard 0's TPM
     alongside shard 0's own signer root: one tier-one quote then
     certifies both tiers of the sharded deployment. *)
  Rot.Tpm.extend (Option.get !tpm0) ~pcr:Monitor.key_binding_pcr
    (Crypto.Signature.public_root signer);
  (* Every shard boot re-pointed the trace clock at its own machine;
     the federation's causal order keys off shard 0's counter. *)
  Obs.set_clock (fun () -> Hw.Machine.cycles shards.(0).s_machine);
  { shards;
    cores_per_shard;
    signer;
    signer_lock = Mutex.create ();
    measured = Hashtbl.create 16;
    meas_lock = Mutex.create ();
    attests = 0;
    persist = None }

let shard_count t = Array.length t.shards
let cores t = Array.length t.shards * t.cores_per_shard
let cores_per_shard t = t.cores_per_shard
let shard_monitor t i = t.shards.(i).s_monitor
let attestation_root t = Crypto.Signature.public_root t.signer
let shard0 t = t.shards.(0)
let boot_quote t ~nonce = Monitor.boot_quote (shard0 t).s_monitor ~nonce

(* --- front-end redo log --------------------------------------------- *)

let log_op t record =
  match t.persist with
  | None -> ()
  | Some fp when fp.fp_replaying -> ()
  | Some fp ->
    Mutex.protect fp.fp_lock (fun () ->
        let seq = fp.fp_seq + 1 in
        fp.fp_seq <- seq;
        Persist.Group.append fp.fp_group ~seq (Journal.encode record))

let log_call t ~caller call = log_op t (Journal.Call { caller; call })

(* --- domain lifecycle (broadcast) ----------------------------------- *)

let divergence what =
  invalid_arg ("Sharded: shard state diverged during " ^ what)

(* Replicated-table ops succeed or fail identically on every shard (the
   decision reads only the domain tables, which broadcast keeps in
   lockstep): run shard 0 first, surface its verdict, and require the
   rest to agree. *)
let broadcast t what f =
  match f (shard0 t).s_monitor with
  | Error _ as e -> e
  | Ok () ->
    Array.iter
      (fun s ->
        if s.s_index > 0 then
          match f s.s_monitor with Ok () -> () | Error _ -> divergence what)
      t.shards;
    Ok ()

let create_domain t ~caller ~name ~kind =
  write_all t (fun () ->
      match Monitor.create_domain (shard0 t).s_monitor ~caller ~name ~kind with
      | Error _ as e -> e
      | Ok id ->
        Array.iter
          (fun s ->
            if s.s_index > 0 then
              match Monitor.create_domain s.s_monitor ~caller ~name ~kind with
              | Ok id' when id' = id -> ()
              | _ -> divergence "create_domain")
          t.shards;
        log_call t ~caller (Op.Create_domain { name; kind });
        Ok id)

let set_entry_point t ~caller ~domain entry =
  write_all t (fun () ->
      (* The entry address is global configuration data: stored verbatim
         on every shard (it feeds the seal digest and the transition
         target); callers must run the domain on a core of the shard
         holding the entry's backing memory. *)
      match
        broadcast t "set_entry_point" (fun m ->
            Monitor.set_entry_point m ~caller ~domain entry)
      with
      | Ok () ->
        log_call t ~caller (Op.Set_entry_point { domain; entry });
        Ok ()
      | Error _ as e -> e)

let set_flush_policy t ~caller ~domain flush =
  write_all t (fun () ->
      match
        broadcast t "set_flush_policy" (fun m ->
            Monitor.set_flush_policy m ~caller ~domain flush)
      with
      | Ok () ->
        log_call t ~caller (Op.Set_flush_policy { domain; flush });
        Ok ()
      | Error _ as e -> e)

let mark_measured t ~caller ~domain range =
  let b = Hw.Addr.Range.base range in
  let sh = addr_shard b in
  if sh < 0 || sh >= Array.length t.shards
     || addr_shard (Hw.Addr.Range.limit range - 1) <> sh
  then Error (Monitor.Denied "measured range not held by the domain")
  else
    let s = t.shards.(sh) in
    write s (fun () ->
        match Monitor.mark_measured s.s_monitor ~caller ~domain (lrange ~shard:sh range) with
        | Ok () ->
          Mutex.protect t.meas_lock (fun () ->
              let l =
                match Hashtbl.find_opt t.measured domain with
                | Some l -> l
                | None ->
                  let l = ref [] in
                  Hashtbl.replace t.measured domain l;
                  l
              in
              l := range :: !l);
          log_call t ~caller (Op.Mark_measured { domain; range });
          Ok ()
        | Error e -> Error (tr_error ~shard:sh e))

let global_measured t domain =
  Mutex.protect t.meas_lock (fun () ->
      match Hashtbl.find_opt t.measured domain with
      | Some l -> List.rev !l
      | None -> [])

(* Seal. Validation and measurement happen at the front end — each
   global measured range is hashed on its owning shard's machine — then
   the folded digest is installed on every shard through the validated
   {!Monitor.install_seal} path. [Domain.seal] mutates only the
   (replicated) domain record, never the captree, so this is a
   deterministic broadcast, not a 2PC. *)
let seal t ~caller ~domain =
  write_all t (fun () ->
      let* d0 =
        match Monitor.find_domain (shard0 t).s_monitor domain with
        | Some d -> Ok d
        | None -> Error (Monitor.Unknown_domain domain)
      in
      let* () =
        if caller = domain || Domain.created_by d0 = Some caller then Ok ()
        else Error (Monitor.Denied "only the domain or its creator may configure it")
      in
      match Domain.entry_point d0 with
      | None -> Error (Monitor.Domain_config "cannot seal a domain without an entry point")
      | Some entry ->
        let exposed =
          Array.exists
            (fun s ->
              match Monitor.find_domain s.s_monitor domain with
              | None -> false
              | Some d ->
                Monitor.measured_exposures s.s_monitor ~domain (Domain.measured_ranges d)
                <> [])
            t.shards
        in
        if exposed then
          Error (Monitor.Denied "a measured region is already reachable by a foreign domain")
        else begin
          let ranges =
            List.map
              (fun r ->
                let sh = addr_shard (Hw.Addr.Range.base r) in
                let s = t.shards.(sh) in
                let pages =
                  (Hw.Addr.Range.len r + Hw.Addr.page_size - 1) / Hw.Addr.page_size
                in
                Hw.Cycles.charge s.s_machine.Hw.Machine.counter
                  (pages * Hw.Cycles.Cost.measurement_per_page);
                (r, Hw.Physmem.measure s.s_machine.Hw.Machine.mem (lrange ~shard:sh r)))
              (global_measured t domain)
          in
          let digest =
            Measure.domain_digest ~kind:(Domain.kind d0) ~entry_point:entry
              ~flush_on_transition:(Domain.flush_on_transition d0) ~ranges
          in
          let raw = Crypto.Sha256.to_raw digest in
          match
            broadcast t "seal" (fun m ->
                Result.map_error
                  (fun e -> Monitor.Domain_config e)
                  (Monitor.install_seal m ~caller ~domain ~measurement:raw))
          with
          | Ok () ->
            log_op t (Journal.Seal_digest { caller; domain; measurement = raw });
            Ok ()
          | Error _ as e -> e
        end)

(* --- two-phase commit: domain destruction --------------------------- *)

let prepare_fault = Fault.register "shard.prepare"
let commit_fault = Fault.register "shard.commit"
let tpc_abort_c = Obs.Metrics.counter "sharded.2pc.abort"
let tpc_commit_c = Obs.Metrics.counter "sharded.2pc.commit"

(* Destroying a domain is the one operation whose mutation set spans
   every shard (the revocation cascade runs wherever the domain holds
   or delegated capabilities), so it carries the 2PC:

     1. guards on every shard (read-only);
     2. PREPARE: open a transaction bracket on every shard and run the
        per-shard cascade into the open journals — any error, or an
        injected fault at [shard.prepare], aborts by rolling every
        journal back (all-or-nothing under fault, same contract as the
        single-monitor [with_txn]);
     3. COMMIT: close every journal. Per-shard commit is infallible
        in-memory work, so a fault injected at [shard.commit] after the
        decision is absorbed (counted, never partial) — the protocol
        has passed its commit point;
     4. post-commit: the un-journaled table removals, then the WAL
        append (redo contract: only fully committed ops reach the log). *)
let destroy_domain t ~caller ~domain =
  write_all t (fun () ->
      let guards =
        Array.fold_left
          (fun acc s ->
            match acc with
            | Error _ -> acc
            | Ok ds -> (
              match Monitor.destroy_guard s.s_monitor ~caller ~domain with
              | Ok d -> Ok (d :: ds)
              | Error e -> Error (tr_error ~shard:s.s_index e)))
          (Ok []) t.shards
      in
      match guards with
      | Error _ as e -> e
      | Ok rev_ds ->
        let ds = Array.of_list (List.rev rev_ds) in
        Array.iter (fun s -> Monitor.txn_begin s.s_monitor) t.shards;
        let rollback_all () =
          Array.iter (fun s -> Monitor.txn_rollback s.s_monitor) t.shards
        in
        (match
           let r =
             Array.fold_left
               (fun acc s ->
                 match acc with
                 | Error _ -> acc
                 | Ok () ->
                   Result.map_error (tr_error ~shard:s.s_index)
                     (Monitor.revoke_all_of s.s_monitor ~domain))
               (Ok ()) t.shards
           in
           (* Prepare is done: every journal holds its slice of the
              cascade. A fault here models losing the coordinator
              before the decision — the only sound outcome is global
              rollback. *)
           Fault.hit prepare_fault;
           r
         with
        | Ok () ->
          Array.iter
            (fun s ->
              (try Fault.hit commit_fault
               with Fault.Injected _ -> Obs.instant "sharded.2pc.commit_fault");
              Monitor.txn_commit s.s_monitor)
            t.shards;
          Array.iteri (fun i s -> Monitor.forget_domain s.s_monitor ds.(i)) t.shards;
          Mutex.protect t.meas_lock (fun () -> Hashtbl.remove t.measured domain);
          Obs.Metrics.incr tpc_commit_c;
          log_call t ~caller (Op.Destroy { domain });
          Ok ()
        | Error _ as e ->
          rollback_all ();
          Obs.Metrics.incr tpc_abort_c;
          e
        | exception Fault.Injected _ ->
          rollback_all ();
          Obs.Metrics.incr tpc_abort_c;
          Obs.instant "sharded.2pc.abort";
          Error (Monitor.Backend_failure "fault injected before the 2PC commit point (rolled back)")
        | exception e ->
          rollback_all ();
          Obs.Metrics.incr tpc_abort_c;
          raise e))

(* --- capability operations (single shard) --------------------------- *)

let with_cap_shard t cap f =
  let sh = cap_shard cap in
  if sh >= Array.length t.shards then
    Error (Monitor.Cap_error (Cap.Captree.No_such_capability cap))
  else f sh t.shards.(sh)

let share t ~caller ~cap ~to_ ~rights ~cleanup ?subrange () =
  with_cap_shard t cap (fun sh s ->
      let* sub =
        match subrange with
        | None -> Ok None
        | Some r -> (
          match local_sub ~shard:sh r with
          | Some l -> Ok (Some l)
          | None -> Error (Monitor.Cap_error Cap.Captree.Bad_subrange))
      in
      write s (fun () ->
          match
            Monitor.share s.s_monitor ~caller ~cap:(cap_local cap) ~to_ ~rights ~cleanup
              ?subrange:sub ()
          with
          | Ok c ->
            log_call t ~caller (Op.Share { cap; to_; rights; cleanup; subrange });
            Ok (gcap ~shard:sh c)
          | Error e -> Error (tr_error ~shard:sh e)))

let grant t ~caller ~cap ~to_ ~rights ~cleanup =
  with_cap_shard t cap (fun sh s ->
      write s (fun () ->
          match Monitor.grant s.s_monitor ~caller ~cap:(cap_local cap) ~to_ ~rights ~cleanup with
          | Ok c ->
            log_call t ~caller (Op.Grant { cap; to_; rights; cleanup });
            Ok (gcap ~shard:sh c)
          | Error e -> Error (tr_error ~shard:sh e)))

let split t ~caller ~cap ~at =
  with_cap_shard t cap (fun sh s ->
      let at_local = at - (sh * addr_stride) in
      if at_local < 0 || at_local >= addr_stride then
        Error (Monitor.Cap_error Cap.Captree.Bad_subrange)
      else
        write s (fun () ->
            match Monitor.split s.s_monitor ~caller ~cap:(cap_local cap) ~at:at_local with
            | Ok (a, b) ->
              log_call t ~caller (Op.Split { cap; at });
              Ok (gcap ~shard:sh a, gcap ~shard:sh b)
            | Error e -> Error (tr_error ~shard:sh e)))

let carve t ~caller ~cap ~subrange =
  with_cap_shard t cap (fun sh s ->
      match local_sub ~shard:sh subrange with
      | None -> Error (Monitor.Cap_error Cap.Captree.Bad_subrange)
      | Some sub ->
        write s (fun () ->
            match Monitor.carve s.s_monitor ~caller ~cap:(cap_local cap) ~subrange:sub with
            | Ok c ->
              log_call t ~caller (Op.Carve { cap; subrange });
              Ok (gcap ~shard:sh c)
            | Error e -> Error (tr_error ~shard:sh e)))

let revoke t ~caller ~cap =
  with_cap_shard t cap (fun sh s ->
      write s (fun () ->
          match Monitor.revoke s.s_monitor ~caller ~cap:(cap_local cap) with
          | Ok () ->
            log_call t ~caller (Op.Revoke { cap });
            Ok ()
          | Error e -> Error (tr_error ~shard:sh e)))

(* --- indexed queries (epoch/seqlock read path) ---------------------- *)

let caps_of t domain =
  Array.to_list t.shards
  |> List.concat_map (fun s ->
         read s (fun () -> Monitor.caps_of s.s_monitor domain)
         |> List.map (gcap ~shard:s.s_index))

let refcount t res =
  let sh = resource_shard t res in
  if sh < 0 || sh >= Array.length t.shards then 0
  else
    let s = t.shards.(sh) in
    read s (fun () ->
        Cap.Captree.refcount (Monitor.tree s.s_monitor) (local_resource t ~shard:sh res))

let holders t res =
  let sh = resource_shard t res in
  if sh < 0 || sh >= Array.length t.shards then []
  else
    let s = t.shards.(sh) in
    read s (fun () ->
        Cap.Captree.holders (Monitor.tree s.s_monitor) (local_resource t ~shard:sh res))

(* --- transitions and domain-context access -------------------------- *)

let with_core t core f =
  let sh = core_shard t core in
  if core < 0 || sh >= Array.length t.shards then
    Error (Monitor.Bad_transition (Printf.sprintf "no such core: %d" core))
  else f sh t.shards.(sh) (core_local t core)

let current_domain t ~core =
  Monitor.current_domain
    t.shards.(core_shard t core).s_monitor
    ~core:(core_local t core)

let call t ~core ~target =
  with_core t core (fun sh s lc ->
      write s (fun () ->
          match Monitor.call s.s_monitor ~core:lc ~target with
          | Ok p ->
            log_op t (Journal.Transition { core; call = Op.Call { target } });
            Ok p
          | Error e -> Error (tr_error ~shard:sh e)))

let ret t ~core =
  with_core t core (fun sh s lc ->
      write s (fun () ->
          match Monitor.ret s.s_monitor ~core:lc with
          | Ok p ->
            log_op t (Journal.Transition { core; call = Op.Return });
            Ok p
          | Error e -> Error (tr_error ~shard:sh e)))

let timer_tick t ~core =
  with_core t core (fun sh s lc ->
      write s (fun () ->
          match Monitor.timer_tick s.s_monitor ~core:lc with
          | Ok d ->
            (* Logged unconditionally (the single-monitor path logs only
               evictions); replaying a no-op tick is itself a no-op. *)
            log_op t (Journal.Timer_tick { core });
            Ok d
          | Error e -> Error (tr_error ~shard:sh e)))

let route_interrupt t ~caller ~device ~vector ~core =
  with_core t core (fun _sh s lc ->
      let s0 = shard0 t in
      let holds_dev =
        read s0 (fun () ->
            List.mem caller
              (Cap.Captree.holders (Monitor.tree s0.s_monitor) (Cap.Resource.Device device)))
      in
      if not holds_dev then Error (Monitor.Denied "caller holds no capability for the device")
      else
        let holds_core =
          read s (fun () ->
              List.mem caller
                (Cap.Captree.holders (Monitor.tree s.s_monitor) (Cap.Resource.Cpu_core lc)))
        in
        if not holds_core then
          Error (Monitor.Denied "caller holds no capability for the target core")
        else
          locked s (fun () ->
              let ic = s.s_machine.Hw.Machine.interrupts in
              Hw.Interrupt.permit ic ~device ~vector;
              Hw.Interrupt.route ic ~vector ~core:lc;
              Ok ()))

let on_shard_addr t core addr f =
  with_core t core (fun sh s lc ->
      if addr_shard addr <> sh then
        Error
          (Monitor.Denied
             (Printf.sprintf "address 0x%x is not on core %d's shard" addr core))
      else f s lc (addr - (sh * addr_stride)))

let load t ~core addr =
  on_shard_addr t core addr (fun s lc a -> locked s (fun () -> Monitor.load s.s_monitor ~core:lc a))

let store t ~core addr v =
  on_shard_addr t core addr (fun s lc a ->
      locked s (fun () -> Monitor.store s.s_monitor ~core:lc a v))

let load_string t ~core r =
  on_shard_addr t core (Hw.Addr.Range.base r) (fun s lc a ->
      locked s (fun () ->
          Monitor.load_string s.s_monitor ~core:lc
            (Hw.Addr.Range.make ~base:a ~len:(Hw.Addr.Range.len r))))

let store_string t ~core addr str =
  on_shard_addr t core addr (fun s lc a ->
      locked s (fun () -> Monitor.store_string s.s_monitor ~core:lc a str))

let get_reg t ~core i =
  with_core t core (fun _sh s lc -> locked s (fun () -> Monitor.get_reg s.s_monitor ~core:lc i))

let set_reg t ~core i v =
  with_core t core (fun _sh s lc -> locked s (fun () -> Monitor.set_reg s.s_monitor ~core:lc i v))

(* --- aggregate attestation ------------------------------------------ *)

(* One body per shard (memoized per shard, under the shard lock — the
   memo table is not safe against concurrent optimistic readers),
   translated into the global namespace and concatenated in shard
   order. Order is immaterial: the attestation payload canonicalizes
   regions by address and cores/devices by id. *)
let attest_body t ~domain =
  Array.fold_left
    (fun acc s ->
      match acc with
      | Error _ -> acc
      | Ok (regions, cores, devices) -> (
        match locked s (fun () -> Monitor.attest_body_of s.s_monitor ~domain) with
        | Error e -> Error (tr_error ~shard:s.s_index e)
        | Ok (r, c, d) ->
          let sh = s.s_index in
          let r =
            List.map
              (fun (rr : Attestation.region_report) ->
                { rr with Attestation.range = grange ~shard:sh rr.Attestation.range })
              r
          in
          let c = List.map (fun (core, rc) -> (gcore t ~shard:sh core, rc)) c in
          Ok (regions @ r, cores @ c, devices @ d)))
    (Ok ([], [], []))
    t.shards

(* The global view of a domain record: shard 0's replica plus the
   front end's global measured-range list. *)
let global_domain t domain =
  match Monitor.find_domain (shard0 t).s_monitor domain with
  | None -> Error (Monitor.Unknown_domain domain)
  | Some d ->
    Ok
      ( d,
        Domain.restore ~id:(Domain.id d) ~name:(Domain.name d) ~kind:(Domain.kind d)
          ~created_by:(Domain.created_by d) ~sealed:(Domain.is_sealed d)
          ~entry_point:(Domain.entry_point d) ~measured:(global_measured t domain)
          ~flush_on_transition:(Domain.flush_on_transition d)
          ~measurement:(Domain.measurement d) )

let attest t ~caller ~domain ~nonce =
  let* _ =
    match Monitor.find_domain (shard0 t).s_monitor caller with
    | Some d -> Ok d
    | None -> Error (Monitor.Unknown_domain caller)
  in
  let* d0, global = global_domain t domain in
  let* regions, cores, devices = attest_body t ~domain in
  let encrypted =
    (Monitor.backend (shard0 t).s_monitor).Backend_intf.domain_encrypted d0
  in
  Mutex.protect t.signer_lock (fun () ->
      t.attests <- t.attests + 1;
      Ok
        (Attestation.sign ~signer:t.signer ~domain:global ~regions ~cores ~devices
           ~memory_encrypted:encrypted ~nonce))

let find_domain t id = Monitor.find_domain (shard0 t).s_monitor id
let attest_count t = t.attests
let observe (_ : t) = Obs.report ()

(* --- API dispatch (mirrors Api.dispatch over the global namespace) -- *)

let dispatch t ~caller ~core (call_ : Api.call) : Api.response =
  try
    match call_ with
    | Api.Create_domain { name; kind } ->
      Result.map (fun d -> Api.R_domain d) (create_domain t ~caller ~name ~kind)
    | Api.Set_entry_point { domain; entry } ->
      Result.map (fun () -> Api.R_unit) (set_entry_point t ~caller ~domain entry)
    | Api.Set_flush_policy { domain; flush } ->
      Result.map (fun () -> Api.R_unit) (set_flush_policy t ~caller ~domain flush)
    | Api.Mark_measured { domain; range } ->
      Result.map (fun () -> Api.R_unit) (mark_measured t ~caller ~domain range)
    | Api.Seal { domain } -> Result.map (fun () -> Api.R_unit) (seal t ~caller ~domain)
    | Api.Destroy { domain } ->
      Result.map (fun () -> Api.R_unit) (destroy_domain t ~caller ~domain)
    | Api.Share { cap; to_; rights; cleanup; subrange } ->
      Result.map (fun c -> Api.R_cap c)
        (share t ~caller ~cap ~to_ ~rights ~cleanup ?subrange ())
    | Api.Grant { cap; to_; rights; cleanup } ->
      Result.map (fun c -> Api.R_cap c) (grant t ~caller ~cap ~to_ ~rights ~cleanup)
    | Api.Split { cap; at } ->
      Result.map (fun (a, b) -> Api.R_cap_pair (a, b)) (split t ~caller ~cap ~at)
    | Api.Carve { cap; subrange } ->
      Result.map (fun c -> Api.R_cap c) (carve t ~caller ~cap ~subrange)
    | Api.Revoke { cap } -> Result.map (fun () -> Api.R_unit) (revoke t ~caller ~cap)
    | Api.Enumerate -> Ok (Api.R_caps (caps_of t caller))
    | Api.Attest { domain; nonce } ->
      Result.map (fun a -> Api.R_attestation a) (attest t ~caller ~domain ~nonce)
    | Api.Call { target } ->
      if current_domain t ~core <> caller then
        Error (Monitor.Bad_transition "caller is not current on this core")
      else Result.map (fun p -> Api.R_path p) (call t ~core ~target)
    | Api.Return ->
      if current_domain t ~core <> caller then
        Error (Monitor.Bad_transition "caller is not current on this core")
      else Result.map (fun p -> Api.R_path p) (ret t ~core)
  with
  | Invalid_argument msg -> Error (Monitor.Denied ("invalid argument: " ^ msg))
  | Failure msg -> Error (Monitor.Denied ("failure: " ^ msg))

(* --- durability ------------------------------------------------------ *)

let enable_persistence t ~store ?(fsync_every = 1) ?(latency_bound = max_int) () =
  let group =
    Persist.Group.create ~max_batch:fsync_every ~latency_bound
      ~now:(fun () -> Hw.Machine.cycles (shard0 t).s_machine)
      store ~blob:Persist.Store.wal_blob ~durable_seq:0
  in
  t.persist <-
    Some { fp_group = group; fp_lock = Mutex.create (); fp_seq = 0; fp_replaying = false }

let flush t = match t.persist with None -> () | Some fp -> Persist.Group.flush fp.fp_group
let persist_seq t = Option.map (fun fp -> fp.fp_seq) t.persist
let durable_seq t = Option.map (fun fp -> Persist.Group.durable_seq fp.fp_group) t.persist

(* Replay one global-id record through the sharded dispatch (logging
   muted by [fp_replaying]). *)
let replay_record t record =
  let mon r = Result.map_error Monitor.error_to_string (Result.map ignore r) in
  match record with
  | Journal.Call { caller; call } -> mon (dispatch t ~caller ~core:0 call)
  | Journal.Transition { core; call } ->
    mon (dispatch t ~caller:(current_domain t ~core) ~core call)
  | Journal.Seal_digest { caller; domain; measurement } ->
    (* Memory contents are not durable: install the recorded digest
       verbatim on every shard, as the single-monitor replay does. *)
    mon
      (write_all t (fun () ->
           broadcast t "seal replay" (fun m ->
               Result.map_error
                 (fun e -> Monitor.Domain_config e)
                 (Monitor.install_seal m ~caller ~domain ~measurement))))
  | Journal.Timer_tick { core } -> mon (timer_tick t ~core)

type recovery_report = {
  sr_wal_records : int;
  sr_replayed : int;
  sr_wal_truncated : bool;
  sr_stopped_early : string option;
}

(* Crash-restart for a sharded deployment: boot a fresh federation and
   redo the whole front-end WAL through the sharded dispatch (the
   front end keeps no snapshots — its log is the full history; shard
   checkpointing is future work). Fault injection is masked during
   replay, as in [Monitor.recover]. *)
let recover ?shards ?signer_height ?keypool ~rng ~mk ~store () =
  let t = boot ?shards ?signer_height ?keypool ~rng ~mk () in
  let wal = Persist.Wal.read store ~blob:Persist.Store.wal_blob in
  enable_persistence t ~store ();
  let fp = Option.get t.persist in
  fp.fp_replaying <- true;
  let applied, stopped =
    Fun.protect
      ~finally:(fun () -> fp.fp_replaying <- false)
      (fun () ->
        Fault.suspend (fun () ->
            Journal.replay ~base_seq:0 wal.Persist.Wal.records (replay_record t)))
  in
  fp.fp_seq <- applied;
  Persist.Group.note_durable fp.fp_group ~seq:fp.fp_seq;
  ( t,
    { sr_wal_records = List.length wal.Persist.Wal.records;
      sr_replayed = applied;
      sr_wal_truncated = wal.Persist.Wal.truncated;
      sr_stopped_early = stopped } )
