(* A seeded splitmix64 generator: the same seed gives the same stream on
   every OCaml version, which [Random] does not promise. *)

type t = { mutable s : int64 }

let make (seed : int) : t = { s = Int64.of_int seed }

let next (r : t) : int64 =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, 1). *)
let float (r : t) : float =
  Int64.to_float (Int64.shift_right_logical (next r) 11) *. 0x1p-53

(* Uniform in [0, bound). *)
let int (r : t) (bound : int) : int =
  if bound <= 0 then invalid_arg "Rng.int";
  Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int bound))

let permutation (r : t) (n : int) : int array =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* An endless stream of indices in [0, n): successive seeded
   permutations, so every index comes up equally often. *)
let rounds (r : t) (n : int) : unit -> int =
  let perm = ref [||] and pos = ref 0 in
  fun () ->
    if !pos >= Array.length !perm then begin
      perm := permutation r n;
      pos := 0
    end;
    let i = !perm.(!pos) in
    incr pos;
    i
