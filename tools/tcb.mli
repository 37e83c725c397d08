(** The trusted-core line count (claim C3), derived from the build.

    The trusted core is everything the monitor links into itself: the
    dune [(libraries …)] closure of the two backend libraries, read from
    the [dune] files under [lib/]. The simulated hardware it links
    ([tyche.hw], [tyche.rot]) stands in for real hardware and firmware,
    so it is listed apart and not counted. Lines are non-blank lines of
    the library's [.ml]/[.mli] files. *)

type entry = { lib : string; dir : string; lines : int }

type t = {
  trusted : entry list; (** The closure minus simulated hardware, by name. *)
  simulated : entry list;
  total : int; (** Sum of [trusted]. *)
}

val roots : string list
(** [tyche.backend-x86] and [tyche.backend-riscv]. *)

val limit : int
(** 10,000: the paper's bound on the trusted core. *)

val count : root:string -> t
(** Count from the repository (or build-context) root [root]. *)

val pp : Format.formatter -> t -> unit
(** One row per library, then the total against {!limit}. *)
