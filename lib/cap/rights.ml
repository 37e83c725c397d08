type t = { perm : Hw.Perm.t; can_share : bool; can_grant : bool }

let full = { perm = Hw.Perm.rwx; can_share = true; can_grant = true }
let read_only = { perm = Hw.Perm.r; can_share = false; can_grant = false }
let rw = { perm = Hw.Perm.rw; can_share = true; can_grant = false }
let rx = { perm = Hw.Perm.rx; can_share = false; can_grant = false }
let exclusive_use = { perm = Hw.Perm.rwx; can_share = false; can_grant = false }

let attenuates ~parent ~child =
  Hw.Perm.subsumes parent.perm child.perm
  && (child.can_share <= parent.can_share)
  && (child.can_grant <= parent.can_grant)

let equal a b = a = b

let to_bits r =
  (if r.perm.Hw.Perm.read then 1 else 0)
  lor (if r.perm.Hw.Perm.write then 2 else 0)
  lor (if r.perm.Hw.Perm.exec then 4 else 0)
  lor (if r.can_share then 8 else 0)
  lor if r.can_grant then 16 else 0

let of_bits b =
  if b land lnot 31 <> 0 then None
  else
    Some
      { perm = { Hw.Perm.read = b land 1 <> 0; write = b land 2 <> 0; exec = b land 4 <> 0 };
        can_share = b land 8 <> 0;
        can_grant = b land 16 <> 0 }

let pp fmt t =
  Format.fprintf fmt "%a%s%s" Hw.Perm.pp t.perm
    (if t.can_share then "+s" else "")
    (if t.can_grant then "+g" else "")
