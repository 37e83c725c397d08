(** Platform-backend interface (§3.3, §4).

    Tyche separates the platform-independent capability model from a
    platform-specific backend that programs real access-control hardware.
    A backend is a record of operations the monitor invokes:
    capability-tree {!Cap.Captree.effect}s to apply, domain lifecycle
    notifications, and domain transitions. The two implementations are
    {!Backend_x86} (VT-x: per-domain EPTs, VMFUNC fast path, IOMMU) and
    {!Backend_riscv} (M-mode: per-hart PMP programming). *)

type transition_path =
  | Fast_switch (** Exit-less switch (VMFUNC EPTP switch on x86). *)
  | Trap_roundtrip (** Through the monitor (VMCALL / ecall). *)

val pp_transition_path : Format.formatter -> transition_path -> unit

type t = {
  backend_name : string;
  domain_created : Domain.t -> unit;
  (** Allocate per-domain enforcement state (an EPT, a PMP layout). *)
  domain_destroyed : Domain.t -> unit;
  apply_effect : Cap.Captree.effect -> (unit, string) result;
  (** Make hardware match a capability-tree change. [Detach] must leave
      the resource unreachable (including TLB shootdown) and run the
      clean-up policy. *)
  validate_attach : Domain.t -> Cap.Resource.t -> (unit, string) result;
  (** Pre-flight check before the monitor mutates the tree: the PMP
      backend rejects layouts that exceed the entry budget (C8); the
      EPT backend accepts anything page-aligned. *)
  transition :
    core:Hw.Cpu.t -> from_:Domain.t -> to_:Domain.t -> flush_microarch:bool ->
    (transition_path, string) result;
  (** Switch the core's translation context between domains, charging
      the simulated hardware cost; returns which path was taken, or
      [Error] when hardware programming fails (PMP reprogramming over
      budget, an injected fault) — in which case the core's context must
      be left on [from_]. *)
  launch : core:Hw.Cpu.t -> Domain.t -> unit;
  (** Boot-time entry of the initial domain on a core (no from-context,
      no cost accounting). *)
  domain_reaches : Domain.t -> Hw.Addr.Range.t -> bool;
  (** Ground truth from the hardware's point of view: can this domain
      currently access any byte of the range? The judiciary compares
      this against the capability tree. *)
  domain_encrypted : Domain.t -> bool;
  (** Whether the domain's confidential memory currently sits under a
      private memory-encryption key (MKTME/SEV-style) — the physical-
      attack posture attestations expose to remote verifiers. *)
  txn_begin : unit -> unit;
  (** Open a hardware transaction: until commit/rollback, every effect
      the backend applies journals an undo, and destructive clean-ups
      (memory zeroing) are deferred. The monitor brackets each mutating
      API call with these, mirroring {!Cap.Captree.txn_begin}. *)
  txn_commit : unit -> unit;
  (** Discard the journal and run the deferred destructive clean-ups. *)
  txn_rollback : unit -> unit;
  (** Undo every journaled hardware effect (newest first) and drop the
      deferred clean-ups; hardware state must equal the state at
      [txn_begin]. Runs with fault injection suspended. *)
}

(** Introspection side tables: a backend module maps the records it
    built back to its internal state for test and bench helpers. Both
    sides are held weakly, so a dropped backend — and the machine its
    state pins — stays collectable. Sound only when the state is
    reachable from the backend record (its closures capture it): then
    the state lives exactly as long as the backend does. *)
module Registry : sig
  type backend := t
  type 'a t

  val create : unit -> 'a t

  val add : 'a t -> backend -> 'a -> unit
  (** Register a backend; entries whose backend was collected are
      dropped here, so the table holds only live backends. *)

  val find : 'a t -> backend -> 'a option
  (** The state registered for this backend (compared by [==]). *)
end
