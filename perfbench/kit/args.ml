(* The benchmark's flags:
     --workload NAME --seed N --seconds S --trace 0|1 *)

type t =
  { workload : string
  ; seed : int
  ; seconds : int
  ; trace : bool
  }

let usage =
  "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]"

let parse (argv : string list) : (t, string) result =
  let int_of flag v =
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "%s: not an integer: %S" flag v)
  in
  let ( let* ) = Result.bind in
  let rec go acc = function
    | [] -> Ok acc
    | "--workload" :: v :: rest -> go { acc with workload = v } rest
    | "--seed" :: v :: rest ->
      let* n = int_of "--seed" v in
      go { acc with seed = n } rest
    | "--seconds" :: v :: rest ->
      let* n = int_of "--seconds" v in
      if n < 1 then Error "--seconds: must be at least 1"
      else go { acc with seconds = n } rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      go { acc with trace = v = "1" } rest
    | "--trace" :: v :: _ -> Error (Printf.sprintf "--trace: expected 0 or 1, got %S" v)
    | flag :: _ -> Error (Printf.sprintf "unknown or incomplete flag %S" flag)
  in
  let* a = go { workload = ""; seed = 1; seconds = 25; trace = false } argv in
  if a.workload = "" then Error "--workload is required" else Ok a
