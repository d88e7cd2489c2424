(* [moments] holds the running mean and the sum of squared deviations
   from it, in a float array so that updating them stores unboxed
   floats instead of allocating one per field per sample. *)
type t = {
  mutable samples : float array;
  mutable n : int;
  moments : float array;
  mutable sorted : bool;
}

let mean_ix = 0
let m2_ix = 1

let create () =
  { samples = Array.make 64 0.; n = 0; moments = [| 0.; 0. |]; sorted = true }

let record t x =
  if t.n = Array.length t.samples then begin
    let fresh = Array.make (2 * t.n) 0. in
    Array.blit t.samples 0 fresh 0 t.n;
    t.samples <- fresh
  end;
  t.samples.(t.n) <- x;
  t.n <- t.n + 1;
  (* Welford: numerically stable even when all samples sit on a large
     common offset, where the sum-of-squares formula cancels
     catastrophically. *)
  let mo = t.moments in
  let delta = x -. mo.(mean_ix) in
  mo.(mean_ix) <- mo.(mean_ix) +. (delta /. float_of_int t.n);
  mo.(m2_ix) <- mo.(m2_ix) +. (delta *. (x -. mo.(mean_ix)));
  t.sorted <- false

let count t = t.n
let mean t = if t.n = 0 then 0. else t.moments.(mean_ix)

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.samples 0 t.n in
    Array.sort Float.compare live;
    Array.blit live 0 t.samples 0 t.n;
    t.sorted <- true
  end

let min t =
  if t.n = 0 then 0.
  else begin
    ensure_sorted t;
    t.samples.(0)
  end

let max t =
  if t.n = 0 then 0.
  else begin
    ensure_sorted t;
    t.samples.(t.n - 1)
  end

let percentile t p =
  if t.n = 0 then 0.
  else begin
    ensure_sorted t;
    let rank = int_of_float (ceil (p *. float_of_int t.n)) in
    t.samples.(Stdlib.min (t.n - 1) (Stdlib.max 0 (rank - 1)))
  end

let stddev t =
  if t.n < 2 then 0. else sqrt (Stdlib.max 0. (t.moments.(m2_ix) /. float_of_int t.n))

let clear t =
  t.n <- 0;
  t.moments.(mean_ix) <- 0.;
  t.moments.(m2_ix) <- 0.;
  t.sorted <- true

let pp ppf t =
  Fmt.pf ppf "n=%d mean=%.1f p50=%.1f p99=%.1f max=%.1f" (count t) (mean t)
    (percentile t 0.50) (percentile t 0.99) (max t)
