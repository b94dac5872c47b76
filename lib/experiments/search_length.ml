module Ll = Lotto_draw.List_lottery
module Rng = Lotto_prng.Rng

type row = {
  clients : int;
  unordered : float;
  move_to_front : float;
  by_weight : float;
  tree_depth : float;
}

type t = { rows : row array }

(* skewed ticket distribution: client r holds ~1000/(r+1) tickets *)
let weight_of rank = Lotto_draw.Draw.units (1000. /. float_of_int (rank + 1))

let mean_search ~seed ~draws ~clients order =
  let t = Ll.create ~order () in
  (* insert in random order so the orderings themselves do the work *)
  let ranks = Array.init clients Fun.id in
  let shuffle_rng = Rng.create ~algo:Splitmix64 ~seed () in
  Rng.shuffle shuffle_rng ranks;
  Array.iter (fun r -> ignore (Ll.add t ~client:r ~weight:(weight_of r))) ranks;
  let rng = Rng.create ~algo:Splitmix64 ~seed:(seed + 1) () in
  (* warm the move-to-front ordering before measuring *)
  for _ = 1 to 500 do
    ignore (Ll.draw t rng)
  done;
  Ll.reset_comparisons t;
  for _ = 1 to draws do
    ignore (Ll.draw t rng)
  done;
  float_of_int (Ll.comparisons t) /. float_of_int draws

(* Every (client count, ordering) measurement creates its own lottery and
   RNGs from the experiment seed — twelve independent tasks for the domain
   pool, re-assembled into rows by index. *)
let run ?(seed = 42) ?(draws = 5_000) ?(jobs = 1) () =
  let sizes = [| 16; 64; 256; 1024 |] in
  let orders = [| Ll.Unordered; Ll.Move_to_front; Ll.By_weight |] in
  let cells =
    Array.concat
      (Array.to_list
         (Array.map (fun clients -> Array.map (fun o -> (clients, o)) orders) sizes))
  in
  let means =
    Lotto_par.Pool.map_tasks ~jobs
      (fun (clients, order) -> mean_search ~seed ~draws ~clients order)
      cells
  in
  let rows =
    Array.mapi
      (fun i clients ->
        {
          clients;
          unordered = means.(3 * i);
          move_to_front = means.((3 * i) + 1);
          by_weight = means.((3 * i) + 2);
          tree_depth = Float.round (log (float_of_int clients) /. log 2.);
        })
      sizes
  in
  { rows }

let print t =
  Common.print_header
    "Section 4.2: mean search length per draw (skewed 1/r ticket distribution)";
  Common.print_row [ "clients"; "unordered"; "move-to-front"; "sorted"; "tree (lg n)" ];
  Array.iter
    (fun r ->
      Common.print_row
        [
          Printf.sprintf "%5d" r.clients;
          Printf.sprintf "%8.1f" r.unordered;
          Printf.sprintf "%8.1f" r.move_to_front;
          Printf.sprintf "%8.1f" r.by_weight;
          Printf.sprintf "%8.0f" r.tree_depth;
        ])
    t.rows

let to_csv t =
  Common.csv
    ~header:[ "clients"; "unordered"; "move_to_front"; "by_weight"; "tree_depth" ]
    (Array.to_list t.rows
    |> List.map (fun r ->
           [
             string_of_int r.clients;
             Common.f r.unordered;
             Common.f r.move_to_front;
             Common.f r.by_weight;
             Common.f r.tree_depth;
           ]))
