(** Trust domains (§3.1): the monitor's only abstraction.

    A trust domain is an identity plus a set of access rights to physical
    resources, held as capabilities in the {!Cap.Captree}. Domains are
    orthogonal to privilege: a domain can be a whole VM, a process
    sub-compartment, a kernel driver or an I/O device context.

    A domain can be [sealed]: its resource configuration is frozen — no
    new capabilities may be attached and nothing it holds may be shared
    further with it. Sealing fixes the entry point and takes the initial
    measurement, making the domain attestable. *)

type id = int

val initial : id
(** Domain 0: the initial domain (the commodity OS/hypervisor). *)

type kind =
  | Os (** The initial domain. *)
  | Sandbox (** Restricted compartment trusted less than its creator. *)
  | Enclave (** Confidential compartment distrusting its creator. *)
  | Confidential_vm
  | Io_domain (** A device-backed domain (e.g. the paper's GPU). *)
  | Remote
    (** A proxy standing in for a peer machine in the capability tree:
        [Fleet] creates one per connected peer, and cross-machine
        delegations are shares {e to} it — so remote holders appear in
        refcounts, holders lists and attestation bodies (C5 across
        machines) without the monitor knowing anything about networks.
        Never runs, never sealed, no entry point. *)

val pp_kind : Format.formatter -> kind -> unit
val kind_to_string : kind -> string

val kind_to_int : kind -> int
(** The kind's wire code, shared by every codec (API, journal, snapshot,
    migration manifest). *)

val kind_of_int : int -> kind option
(** Inverse of {!kind_to_int}; [None] on an unknown code. *)

type t

val make : id:id -> name:string -> kind:kind -> created_by:id option -> t

val restore :
  id:id ->
  name:string ->
  kind:kind ->
  created_by:id option ->
  sealed:bool ->
  entry_point:Hw.Addr.t option ->
  measured:Hw.Addr.Range.t list ->
  flush_on_transition:bool ->
  measurement:Crypto.Sha256.digest option ->
  t
(** Recovery-only: rebuild a domain exactly as a snapshot recorded it,
    including sealed state. [measured] in declaration order (what
    {!measured_ranges} reported at snapshot time). *)

val id : t -> id
val name : t -> string
val kind : t -> kind
val created_by : t -> id option

val asid : t -> int
(** Hardware address-space tag (equals the domain id). *)

val is_sealed : t -> bool
val entry_point : t -> Hw.Addr.t option
val set_entry_point : t -> Hw.Addr.t -> (unit, string) result
(** Fails once sealed, and on a negative address (which no call or
    journal record can carry). *)

val measured_ranges : t -> Hw.Addr.Range.t list
val add_measured_range : t -> Hw.Addr.Range.t -> (unit, string) result
(** Mark a range for inclusion in the seal-time measurement. Fails once
    sealed. *)

val flush_on_transition : t -> bool
val set_flush_on_transition : t -> bool -> unit
(** Side-channel policy: flush micro-architectural state when control
    leaves this domain (§4.1). *)

val seal : t -> measurement:Crypto.Sha256.digest -> (unit, string) result
(** Freeze the configuration. Fails if already sealed or if no entry
    point is set. *)

val measurement : t -> Crypto.Sha256.digest option
(** The seal-time measurement; [None] until sealed. *)

val is_migrating : t -> bool
val set_migrating : t -> bool -> unit
(** Volatile live-migration latch ({!Tyche.Monitor.freeze_domain} owns
    it): while set, the monitor refuses to run, reconfigure or attach
    capabilities to the domain. Never serialized — cleared by
    crash-restart and re-established from the migration journal. *)

val pp : Format.formatter -> t -> unit
