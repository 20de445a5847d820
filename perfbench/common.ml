(* What every workload shares: the run context, the outcome it hands
   back to main, and the span/counter accumulator of the traced run. *)

open Perfbench_kit

type ctx =
  { seed : int
  ; seconds : float (* length of the measured window *)
  ; trace : bool (* traced run: per-layer metrics instead of end-to-end *)
  ; nproc : int (* team size, executor count: the host's cores *)
  }

type outcome =
  { setup_s : float list (* one duration per set-up repetition *)
  ; attempted : int
  ; failed : int (* operations that missed a correctness gate *)
  ; correct : bool (* no output was wrong *)
  ; end_to_end : (string * float) list (* every Catalog.end_to_end but setup_s *)
  ; layers : (string * float) list (* the Catalog.per_layer keys measured *)
  }

let ms (s : float) : float = s *. 1000.0

(* [f ()] and its duration in seconds. *)
let timed (f : unit -> 'a) : 'a * float =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

(* Human-readable lines go to stdout ahead of the result line. *)
let say fmt = Printf.kfprintf (fun oc -> output_char oc '\n'; flush oc) stdout fmt

let same_bits (a : float) (b : float) : bool =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Run set-up [reps] times, timing each; every result but the last is
   torn down.  The workload measures on the last one. *)
let repeat_setup ~(reps : int) ~(teardown : 'a -> unit) (f : unit -> 'a) :
  'a * float list =
  let rec go i acc =
    let r, dt = timed f in
    if i = reps then (r, List.rev (dt :: acc))
    else begin
      teardown r;
      go (i + 1) (dt :: acc)
    end
  in
  go 1 []

(* Remove a file or a directory tree; a missing path is fine. *)
let rec rm_rf (path : string) : unit =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Samples of the traced run, by metric key. *)
module Acc = struct
  type t = (string, float list) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add (t : t) (k : string) (v : float) : unit =
    Hashtbl.replace t k (v :: Option.value ~default:[] (Hashtbl.find_opt t k))

  let get (t : t) (k : string) : float list =
    Option.value ~default:[] (Hashtbl.find_opt t k)

  (* (key, mean) for every key with samples. *)
  let means (t : t) : (string * float) list =
    Hashtbl.fold (fun k vs acc -> (k, Stats.mean vs) :: acc) t []
end

(* Tracing overhead: typical traced operation over typical untraced
   one (1.0 = free). *)
let overhead_ratio ~(traced : float list) ~(untraced : float list) : float =
  if traced = [] || untraced = [] then 1.0
  else Stats.median traced /. Stats.median untraced

(* One line per end-to-end metric: the key, the name the workload
   gives it, the value with the key's unit, and a note. *)
let report ~(key : string) ~(what : string) (value : float) (note : string) : unit =
  say "  %-16s %-22s %12.4f %-5s %s" key what value (List.assoc key Catalog.end_to_end) note

(* Sample count and within-run spread (IQR / median). *)
let samples_note (xs : float list) : string =
  Printf.sprintf "n=%d spread=%.3f" (List.length xs) (Stats.spread xs)

(* Sample count and how many samples lie beyond a tail percentile. *)
let tail_note (xs : float list) (beyond : int) : string =
  Printf.sprintf "n=%d beyond=%d" (List.length xs) beyond
