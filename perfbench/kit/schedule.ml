(* The serve_mixed request stream: a pure function of the seed, so the
   same seed replays the same requests. *)

type request =
  { at : float (** scheduled send, seconds after the window opens *)
  ; src : int (** index into the source table *)
  ; rev : int
        (** 0 = the base revision served during set-up; otherwise the
            nonce of a [// rev N] comment appended to the source *)
  ; fresh : bool (** first submission of [rev]: a forced recompile *)
  }

(* The source text a revision compiles. *)
let with_rev (source : string) (rev : int) : string =
  if rev = 0 then source else Printf.sprintf "%s\n// rev %d\n" source rev

(* Arrivals at a fixed [rate] per second over [seconds]: request [i] is
   sent at a seeded uniform point of its own 1/rate slot, so the rate
   never bunches up the way Poisson arrivals do and the offered load is
   the same on every seed.  In every block of [new_every] requests one
   seeded position submits a new revision (so the share of forced
   recompiles is fixed); the others repeat a revision of their source
   that was submitted earlier.  Sources are
   drawn from seeded permutations, separately for new revisions and
   repeats, so each source is compiled and read equally often. *)
let serve ~(seed : int) ~(rate : float) ~(seconds : float) ~(sources : int)
    ~(new_every : int) : request array =
  let r = Rng.make seed in
  let next_repeat = Rng.rounds r sources in
  let next_fresh = Rng.rounds r sources in
  let known = Array.make sources [ 0 ] in
  let used = Hashtbl.create 64 in
  let rec nonce () =
    let n = 1 + Rng.int r 999_999_999 in
    if Hashtbl.mem used n then nonce ()
    else begin
      Hashtbl.add used n ();
      n
    end
  in
  let slot = ref 0 in
  let rec go i acc =
    let t = (float_of_int i +. Rng.float r) /. rate in
    if t >= seconds then Array.of_list (List.rev acc)
    else begin
      if i mod new_every = 0 then slot := Rng.int r new_every;
      let req =
        if i mod new_every = !slot then begin
          let src = next_fresh () in
          let rev = nonce () in
          known.(src) <- rev :: known.(src);
          { at = t; src; rev; fresh = true }
        end
        else
          let src = next_repeat () in
          let revs = known.(src) in
          { at = t
          ; src
          ; rev = List.nth revs (Rng.int r (List.length revs))
          ; fresh = false
          }
      in
      go (i + 1) (req :: acc)
    end
  in
  go 0 []
