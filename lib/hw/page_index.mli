(** A reverse index from a 4 KiB page to the keys that target it: the
    EPT keys its gpa pages by the hpa page they map, the TLB its
    [(asid, gpa)] entries by the hpa page they translate into. Range
    queries walk the range's pages here instead of the whole table. *)

type 'k t

val create : int -> 'k t
val add : 'k t -> page:int -> 'k -> unit

val remove : 'k t -> page:int -> 'k -> unit
(** Drop one key from a page (structural equality); a page left with
    no key leaves the index. *)

val find : 'k t -> page:int -> 'k list
val pages : 'k t -> int
(** Number of pages with at least one key. *)

val reset : 'k t -> unit
