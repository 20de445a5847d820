(* SSA values.  Identity is the unique [id]; [name] is only a printing
   hint.  Values are created by [Builder] (op results and region
   arguments). *)

type t =
  { id : int
  ; typ : Types.typ
  ; name : string option
  }

(* Atomic: concurrent serve lanes compile on separate domains, and two
   of them must never hand out the same id. *)
let counter = Atomic.make 0

let fresh ?name typ = { id = Atomic.fetch_and_add counter 1 + 1; typ; name }

let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash a = a.id

let to_string v =
  match v.name with
  | Some n -> Printf.sprintf "%%%s_%d" n v.id
  | None -> Printf.sprintf "%%%d" v.id

module Map = Map.Make (struct
    type nonrec t = t

    let compare = compare
  end)

module Set = Set.Make (struct
    type nonrec t = t

    let compare = compare
  end)

module Tbl = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)
