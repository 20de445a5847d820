(* The result line: the last line of standard output, one JSON object
   with exactly the keys correct, attempted, failed and metrics. *)

(* All the digits of a finite float, as a JSON number. *)
let number (v : float) : string =
  if not (Float.is_finite v) then invalid_arg "Report.number: not finite";
  Printf.sprintf "%.17g" v

(* [metrics] are (name, value, unit); names and units are plain
   [A-Za-z0-9_./%-] and need no escaping. *)
let result_line ~(correct : bool) ~(attempted : int) ~(failed : int)
    (metrics : (string * float * string) list) : string =
  let metric (name, v, u) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) u
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
