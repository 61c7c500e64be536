(* Logical-host ids are small sequential ints: hash them as themselves. *)
module Lh_table = Int_table.Direct

(* [resident] maps a logical host to the kernels it is resident on, each
   tagged with its registration rank and kept in rank order, so the head
   is what a scan of the kernels in registration order would find first.
   The list has one entry, except after a migration whose install
   acknowledgement was lost: the source then resurrects its copy while
   the destination runs its own. Kernels keep it current through
   [Kernel.on_residency]; an id leaves it when its last copy goes. *)
type t = {
  mutable all : (int * Kernel.t) list;
      (* (registration rank, kernel), newest first *)
  resident : (int * Kernel.t) list Lh_table.t;
}

let of_kernels () = { all = []; resident = Lh_table.create 64 }

let copies t id = try Lh_table.find t.resident id with Not_found -> []

let arrive t rank k id =
  let rec insert = function
    | ((r, _) as e) :: rest when r < rank -> e :: insert rest
    | (r, _) :: _ as l when r = rank -> l
    | l -> (rank, k) :: l
  in
  Lh_table.replace t.resident id (insert (copies t id))

let depart t k id =
  match List.filter (fun (_, k') -> k' != k) (copies t id) with
  | [] -> Lh_table.remove t.resident id
  | rest -> Lh_table.replace t.resident id rest

let register t k =
  let rank = match t.all with (r, _) :: _ -> r + 1 | [] -> 0 in
  t.all <- (rank, k) :: t.all;
  Kernel.on_residency k (fun id ~resident ->
      if resident then arrive t rank k id else depart t k id)

let kernels t = List.rev_map snd t.all

let locate t lh_id =
  match copies t lh_id with (_, k) :: _ -> Some k | [] -> None

(* The per-quantum path: one lookup, no allocation. *)
let current t lh_id =
  match copies t lh_id with
  | (_, k) :: _ -> k
  | [] ->
      failwith
        (Printf.sprintf "Directory.current: lh-%d not resident anywhere" lh_id)

let find_host t name =
  List.find_opt (fun k -> String.equal (Kernel.host_name k) name) (kernels t)
