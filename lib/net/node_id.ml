module Id = struct
  type t = int

  let compare = Int.compare
end

type t = int

let of_int i =
  if i < 0 then invalid_arg "Node_id.of_int: negative" else i

let to_int t = t

let compare = Int.compare
let equal = Int.equal

let pp ppf t = Format.fprintf ppf "p%d" t

let peers alive ~self =
  let peers = ref [] in
  for i = Array.length alive - 1 downto 0 do
    if alive.(i) && i <> self then peers := i :: !peers
  done;
  !peers

let group n =
  if n <= 0 then invalid_arg "Node_id.group: n must be positive"
  else List.init n Fun.id

module Set = Set.Make (Id)
module Map = Map.Make (Id)
