(* Deterministic fault injection for the pass pipeline.

   A fault plan is an ordered list of (stage-name, kind) entries.  Each
   entry is one-shot: it fires the first time a stage with that name is
   attempted and is then spent, so `cpuify:raise` hits the min-cut rung
   of the degradation ladder while a second `cpuify:raise` entry also
   takes down the cache-everything retry and forces the whole-pipeline
   fallback.  Plans serialize to `stage:kind[,stage:kind...]`, the same
   syntax the CLI's --inject-fault flag and crash bundles use, so a
   recorded failure replays bit-for-bit. *)

type kind =
  | Raise (* the stage raises before doing any work *)
  | Corrupt (* the stage completes, then the IR is made unverifiable *)
  | Exhaust (* the stage's fuel budget is exhausted immediately *)
  | Hang
    (* the target spins forever: meaningful for the "runtime" stage,
       where one team rank blocks until the watchdog cancels the
       launch; pass-pipeline stages treat it like [Raise] (the pass
       manager's fuel budget already covers diverging passes) *)

type entry = string * kind
type plan = entry list

exception Injected of string

let kind_to_string = function
  | Raise -> "raise"
  | Corrupt -> "corrupt"
  | Exhaust -> "exhaust"
  | Hang -> "hang"

let kind_of_string = function
  | "raise" -> Some Raise
  | "corrupt" -> Some Corrupt
  | "exhaust" -> Some Exhaust
  | "hang" -> Some Hang
  | _ -> None

let entry_to_string (stage, kind) = stage ^ ":" ^ kind_to_string kind

let entry_of_string (s : string) : (entry, string) result =
  match String.index_opt s ':' with
  | None ->
    Error
      (Printf.sprintf
         "invalid fault %S: expected STAGE:KIND with KIND one of \
          raise|corrupt|exhaust|hang" s)
  | Some i ->
    let stage = String.sub s 0 i in
    let kind = String.sub s (i + 1) (String.length s - i - 1) in
    if stage = "" then Error (Printf.sprintf "invalid fault %S: empty stage" s)
    else begin
      match kind_of_string kind with
      | Some k -> Ok (stage, k)
      | None ->
        Error
          (Printf.sprintf
             "invalid fault kind %S: expected raise|corrupt|exhaust|hang"
             kind)
    end

let plan_to_string (p : plan) = String.concat "," (List.map entry_to_string p)

let plan_of_string (s : string) : (plan, string) result =
  if String.trim s = "" then Ok []
  else
    String.split_on_char ',' s
    |> List.fold_left
         (fun acc part ->
           match acc with
           | Error _ as e -> e
           | Ok entries -> begin
             match entry_of_string (String.trim part) with
             | Ok e -> Ok (e :: entries)
             | Error _ as e -> e
           end)
         (Ok [])
    |> Result.map List.rev

(* The "runtime" stage is not a pass: its first entry fires inside the
   parallel engine, as (inject_fault, inject_hang). *)
let runtime_injection (p : plan) : bool * bool =
  match List.assoc_opt "runtime" p with
  | None -> (false, false)
  | Some Hang -> (false, true)
  | Some _ -> (true, false)

(* Seeded random plan over the given stage names: 1-3 faults, any kind.
   Deterministic in [seed], for reproducible randomized testing. *)
let random_plan ~(seed : int) (stages : string list) : plan =
  match stages with
  | [] -> []
  | _ ->
    let rng = Random.State.make [| seed; 0xfa17 |] in
    let n = 1 + Random.State.int rng 3 in
    List.init n (fun _ ->
        let stage = List.nth stages (Random.State.int rng (List.length stages)) in
        let kind =
          match Random.State.int rng 3 with
          | 0 -> Raise
          | 1 -> Corrupt
          | _ -> Exhaust
        in
        (stage, kind))

(* One-shot consumption: take the first pending entry matching [stage]. *)
type pending = entry list ref

let pending_of_plan (p : plan) : pending = ref p

let take (pending : pending) (stage : string) : kind option =
  let rec go acc = function
    | [] -> None
    | (s, k) :: rest when s = stage ->
      pending := List.rev_append acc rest;
      Some k
    | e :: rest -> go (e :: acc) rest
  in
  go [] !pending
