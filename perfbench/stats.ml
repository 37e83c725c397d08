(* Growable sample sets and the order statistics the report uses. *)

type t = { mutable data : float array; mutable n : int }

let create () = { data = Array.make 256 0.; n = 0 }

let add s v =
  if s.n = Array.length s.data then begin
    let d = Array.make (2 * s.n) 0. in
    Array.blit s.data 0 d 0 s.n;
    s.data <- d
  end;
  s.data.(s.n) <- v;
  s.n <- s.n + 1

let count s = s.n

let sorted s =
  let a = Array.sub s.data 0 s.n in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least p% of the set at or
   below it. *)
let rank n p = max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float_of_int n))))

let percentile s p = if s.n = 0 then 0. else (sorted s).(rank s.n p - 1)
let median s = percentile s 50.

(* The tail: the highest percentile of this ladder that still has at
   least ten samples ranked above it. Returns (percentile, value,
   sample count); (50, median, n) when the set is too small for any. *)
let ladder = [ 99.; 95.; 90.; 75. ]

let tail s =
  let n = s.n in
  let p =
    match List.find_opt (fun p -> n - rank n p >= 10) ladder with
    | Some p -> p
    | None -> 50.
  in
  (p, percentile s p, n)

(* Median of a plain list (set-up repetitions). *)
let median_of l =
  let s = create () in
  List.iter (add s) l;
  median s
