(** The assembled simulated machine: memory, cores, devices, IOMMU,
    TLB/cache models and the shared cycle counter.

    A machine is created once per simulation; the boot chain ({!Tpm.Boot})
    measures it, the monitor takes control of it, and everything above
    runs against it. *)

type t = {
  arch : Cpu.arch;
  mem : Physmem.t;
  cores : Cpu.t array;
  iommu : Iommu.t;
  tlb : Tlb.t;
  cache : Cache.t;
  interrupts : Interrupt.t;
  counter : Cycles.counter;
  taint : Taint.t;
      (** The information-flow oracle for clean-up policies, attached
          to [mem]/[tlb]/[cache] at creation (see {!Taint}). *)
  mutable devices : Device.t list;
}

val create : ?arch:Cpu.arch -> ?cores:int -> ?mem_size:int -> unit -> t
(** Defaults: x86_64, 4 cores, 32 MiB of memory.
    @raise Invalid_argument on non-positive core count or bad size. *)

val attach_device : t -> Device.t -> unit
(** Plug in a device (and its SR-IOV virtual functions). *)

val find_device : t -> bdf:int -> Device.t option
val core : t -> int -> Cpu.t
(** @raise Invalid_argument if the core id is out of range. *)

val cycles : t -> int
val reset_cycles : t -> unit

val examined : t -> int
(** Table entries examined so far by the EPT, cache and TLB range
    queries ({!Cycles.examine}): the counted-work twin of revocation
    latency. Deterministic, so gates can bound it where wall-clock
    rows can only report noise. *)
