(* Draw structures: list lottery (Figure 1, move-to-front), Fenwick-tree
   lottery, alias tables, exact integer tickets under hostile churn, and
   the Section 2 probabilistic guarantees. *)

module Ll = Core.List_lottery
module Tl = Core.Tree_lottery
module Al = Core.Alias_lottery
module D = Core.Draw
module Rng = Core.Rng
module Chi = Core.Chi_square

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let rng () = Rng.create ~algo:Splitmix64 ~seed:20240 ()

(* --- list lottery --------------------------------------------------------- *)

let add_paper_clients t =
  (* Figure 1's clients hold 10, 2, 5, 1, 2 tickets; the list lottery
     prepends, so add in reverse to scan in the paper's order. *)
  List.rev_map
    (fun (name, w) -> (name, Ll.add t ~client:name ~weight:w))
    (List.rev [ ("c1", 10); ("c2", 2); ("c3", 5); ("c4", 1); ("c5", 2) ])

let test_figure1_walkthrough () =
  let t = Ll.create ~move_to_front:false () in
  ignore (add_paper_clients t);
  checki "total is 20" 20 (Ll.total t);
  (* running sums 10, 12, 17, 18, 20: winning value 15 lands on c3 *)
  (match Ll.draw_with_value t ~winning:15 with
  | Some h -> check Alcotest.string "winner" "c3" (Ll.client h)
  | None -> Alcotest.fail "no winner");
  (* boundaries: 9 -> c1, 10 -> c2, 17 -> c4, 19 -> c5, 20 -> nobody *)
  let winner_at v =
    match Ll.draw_with_value t ~winning:v with
    | Some h -> Ll.client h
    | None -> Alcotest.fail "no winner"
  in
  check Alcotest.string "9" "c1" (winner_at 9);
  check Alcotest.string "10" "c2" (winner_at 10);
  check Alcotest.string "17" "c4" (winner_at 17);
  check Alcotest.string "19" "c5" (winner_at 19);
  checkb "20 is past the last ticket" true (Ll.draw_with_value t ~winning:20 = None)

let test_move_to_front () =
  let t = Ll.create () in
  ignore (add_paper_clients t);
  (* winning value 19 selects the last client; it must move to the head *)
  (match Ll.draw_with_value t ~winning:19 with
  | Some h -> check Alcotest.string "winner" "c5" (Ll.client h)
  | None -> Alcotest.fail "no winner");
  (match Ll.to_list t with
  | (first, _) :: _ -> check Alcotest.string "moved to front" "c5" first
  | [] -> Alcotest.fail "empty");
  checki "total unchanged" 20 (Ll.total t)

let test_mtf_shortens_searches () =
  (* a heavily funded client should be found quickly under move-to-front *)
  let run ~mtf =
    let t =
      Ll.create ~order:(if mtf then Ll.Move_to_front else Ll.Unordered) ()
    in
    ignore (Ll.add t ~client:"heavy" ~weight:100);
    (* heavy lands at the tail of the scan order: 50 light clients first *)
    for i = 1 to 50 do
      ignore (Ll.add t ~client:(Printf.sprintf "light%d" i) ~weight:1)
    done;
    let r = rng () in
    Ll.reset_comparisons t;
    for _ = 1 to 2_000 do
      ignore (Ll.draw t r)
    done;
    Ll.comparisons t
  in
  let with_mtf = run ~mtf:true and without = run ~mtf:false in
  checkb
    (Printf.sprintf "mtf=%d < plain=%d" with_mtf without)
    true (with_mtf * 2 < without)

let test_list_add_remove_weights () =
  let t = Ll.create () in
  let a = Ll.add t ~client:"a" ~weight:1 in
  let b = Ll.add t ~client:"b" ~weight:2 in
  checki "size" 2 (Ll.size t);
  checki "total" 3 (Ll.total t);
  Ll.set_weight t a 5;
  checki "total after set" 7 (Ll.total t);
  checki "weight readback" 5 (Ll.weight t a);
  Ll.remove t a;
  checkb "removed" false (Ll.mem t a);
  checki "size after remove" 1 (Ll.size t);
  Ll.remove t a;
  checki "remove idempotent" 1 (Ll.size t);
  checkb "b still in" true (Ll.mem t b);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "List_lottery.set_weight: negative weight") (fun () ->
      Ll.set_weight t b (-1))

let test_list_empty_and_zero () =
  let t = Ll.create () in
  checkb "empty draw" true (Ll.draw t (rng ()) = None);
  ignore (Ll.add t ~client:"z" ~weight:0);
  checkb "all-zero draw" true (Ll.draw t (rng ()) = None)

let test_zero_weight_never_wins () =
  let t = Ll.create () in
  ignore (Ll.add t ~client:"zero" ~weight:0);
  ignore (Ll.add t ~client:"one" ~weight:1);
  let r = rng () in
  for _ = 1 to 500 do
    match Ll.draw_client t r with
    | Some "one" -> ()
    | other -> Alcotest.failf "unexpected winner %s" (Option.value ~default:"-" other)
  done

let distribution_matches draw_client weights ~draws =
  let r = rng () in
  let observed = Array.make (Array.length weights) 0 in
  for _ = 1 to draws do
    match draw_client r with
    | Some i -> observed.(i) <- observed.(i) + 1
    | None -> Alcotest.fail "no winner"
  done;
  Chi.goodness_of_fit ~observed ~weights:(Array.map float_of_int weights) ()

let test_list_distribution () =
  let t = Ll.create () in
  let weights = [| 10; 2; 5; 1; 2 |] in
  Array.iteri (fun i w -> ignore (Ll.add t ~client:i ~weight:w)) weights;
  checkb "chi-square ok" true
    (distribution_matches (fun r -> Ll.draw_client t r) weights ~draws:20_000)

let test_sorted_order_shortens_searches () =
  (* the paper's other suggestion: keep clients sorted by decreasing
     tickets *)
  let run order =
    let t = Ll.create ~order () in
    ignore (Ll.add t ~client:"heavy" ~weight:100);
    for i = 1 to 50 do
      ignore (Ll.add t ~client:(Printf.sprintf "light%d" i) ~weight:1)
    done;
    let r = rng () in
    Ll.reset_comparisons t;
    for _ = 1 to 2_000 do
      ignore (Ll.draw t r)
    done;
    Ll.comparisons t
  in
  let sorted = run Ll.By_weight and plain = run Ll.Unordered in
  checkb
    (Printf.sprintf "sorted=%d < plain=%d" sorted plain)
    true (sorted * 2 < plain);
  (* sorted order must not change the distribution *)
  let t = Ll.create ~order:Ll.By_weight () in
  let weights = [| 1; 5; 3 |] in
  Array.iteri (fun i w -> ignore (Ll.add t ~client:i ~weight:w)) weights;
  checkb "distribution intact (chi-square)" true
    (distribution_matches (fun r -> Ll.draw_client t r) weights ~draws:20_000)

(* --- tree lottery ---------------------------------------------------------- *)

let test_tree_matches_prefix_sums () =
  let t = Tl.create () in
  let weights = [| 10; 2; 5; 1; 2 |] in
  Array.iteri (fun i w -> ignore (Tl.add t ~client:i ~weight:w)) weights;
  checki "total" 20 (Tl.total t);
  let winner_at v =
    match Tl.draw_with_value t ~winning:v with
    | Some h -> Tl.client h
    | None -> Alcotest.fail "no winner"
  in
  checki "15 -> slot 2" 2 (winner_at 15);
  checki "9 -> slot 0" 0 (winner_at 9);
  checki "10 -> slot 1" 1 (winner_at 10);
  checki "17 -> slot 3" 3 (winner_at 17);
  checki "19 -> slot 4" 4 (winner_at 19);
  checkb "20 -> nobody" true (Tl.draw_with_value t ~winning:20 = None)

let test_tree_update_remove_reuse () =
  let t = Tl.create ~initial_capacity:2 () in
  let handles = Array.init 10 (fun i -> Tl.add t ~client:i ~weight:1) in
  checki "size" 10 (Tl.size t);
  checki "total" 10 (Tl.total t);
  Tl.set_weight t handles.(3) 5;
  checki "total after update" 14 (Tl.total t);
  Tl.remove t handles.(0);
  Tl.remove t handles.(0);
  checki "size after idempotent remove" 9 (Tl.size t);
  checki "weight of removed" 0 (Tl.weight t handles.(0));
  (* slot reuse *)
  let again = Tl.add t ~client:99 ~weight:2 in
  checki "size back to 10" 10 (Tl.size t);
  checkb "live" true (Tl.mem t again);
  checki "total" 15 (Tl.total t);
  Alcotest.check_raises "set on removed handle"
    (Invalid_argument "Tree_lottery.set_weight: removed handle") (fun () ->
      Tl.set_weight t handles.(0) 1)

let test_tree_distribution () =
  let t = Tl.create () in
  let weights = [| 8; 4; 2; 1; 1 |] in
  Array.iteri (fun i w -> ignore (Tl.add t ~client:i ~weight:w)) weights;
  checkb "chi-square ok" true
    (distribution_matches (fun r -> Tl.draw_client t r) weights ~draws:20_000)

let test_tree_and_list_agree () =
  (* identical weights in identical scan order must pick identical winners
     for every winning value *)
  let weights = [| 3; 0; 7; 2; 5; 0; 1 |] in
  let tree = Tl.create () in
  Array.iteri (fun i w -> ignore (Tl.add tree ~client:i ~weight:w)) weights;
  let lst = Ll.create ~move_to_front:false () in
  (* prepend-reversal again: add backwards so scans run 0..n *)
  for i = Array.length weights - 1 downto 0 do
    ignore (Ll.add lst ~client:i ~weight:weights.(i))
  done;
  for v = 0 to 18 do
    let wt = Option.map Tl.client (Tl.draw_with_value tree ~winning:v) in
    let wl = Option.map Ll.client (Ll.draw_with_value lst ~winning:v) in
    if wt <> wl then
      Alcotest.failf "disagree at %d: tree=%s list=%s" v
        (match wt with Some i -> string_of_int i | None -> "-")
        (match wl with Some i -> string_of_int i | None -> "-")
  done

(* Wide-range weights in tickets: log-uniform over 10^-3 .. 10^12, the
   fifteen orders of magnitude that currency values, compensation factors
   and inverse-lottery weights span. *)
let wide_of_unit u = 10. ** ((15. *. u) -. 3.)
let wide_weight r = wide_of_unit (Rng.float_unit r)

let qcheck_tree_total_is_sum =
  QCheck.Test.make ~name:"tree total equals sum of live weights" ~count:200
    QCheck.(
      list_of_size
        Gen.(int_range 1 60)
        (make Gen.(map wide_of_unit (float_bound_exclusive 1.))))
    (fun ws ->
      let t = Tl.create () in
      let units = List.map D.units ws in
      let hs = List.map (fun w -> Tl.add t ~client:() ~weight:w) units in
      (* remove every third *)
      List.iteri (fun i h -> if i mod 3 = 0 then Tl.remove t h) hs;
      let expected =
        List.filteri (fun i _ -> i mod 3 <> 0) units |> List.fold_left ( + ) 0
      in
      Tl.total t = expected)

let qcheck_tree_matches_reference_model =
  (* model-based: a random sequence of add/remove/set_weight against a
     naive association-list model; totals and deterministic winners must
     agree at every step *)
  QCheck.Test.make ~name:"fenwick tree agrees with a naive model" ~count:100
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~algo:Splitmix64 ~seed () in
      let tree = Tl.create ~initial_capacity:2 () in
      let model : (int Tl.handle * int) list ref = ref [] in
      let ok = ref true in
      for i = 0 to 120 do
        (match Rng.int_below rng 3 with
        | 0 ->
            let w = Rng.int_below rng 50 in
            let h = Tl.add tree ~client:i ~weight:w in
            model := !model @ [ (h, w) ]
        | 1 when !model <> [] ->
            let idx = Rng.int_below rng (List.length !model) in
            let h, _ = List.nth !model idx in
            Tl.remove tree h;
            model := List.filteri (fun j _ -> j <> idx) !model
        | 2 when !model <> [] ->
            let idx = Rng.int_below rng (List.length !model) in
            let h, _ = List.nth !model idx in
            let w = Rng.int_below rng 50 in
            Tl.set_weight tree h w;
            model := List.map (fun (h', w') -> if h' == h then (h', w) else (h', w')) !model
        | _ -> ());
        let model_total = List.fold_left (fun acc (_, w) -> acc + w) 0 !model in
        if Tl.total tree <> model_total then ok := false;
        (* winner agreement on a deterministic draw value; the model must
           walk handles in slot order, which to_list provides *)
        if model_total > 0 then begin
          let v = Rng.int_below rng model_total in
          let tree_winner = Option.map Tl.client (Tl.draw_with_value tree ~winning:v) in
          let rec walk acc = function
            | [] -> None
            | (h, w) :: rest ->
                if acc + w > v then Some (Tl.client h) else walk (acc + w) rest
          in
          (* to_list is slot-ordered; rebuild the model in that order *)
          let slot_ordered =
            List.map
              (fun (c, w) -> (List.find (fun (h, _) -> Tl.client h = c) !model |> fst, w))
              (Tl.to_list tree)
          in
          if walk 0 slot_ordered <> tree_winner then ok := false
        end
      done;
      !ok)

let qcheck_tree_draw_in_range =
  QCheck.Test.make ~name:"tree draw always returns a live positive-weight client"
    ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 40) (int_bound 20)) small_int)
    (fun (ws, seed) ->
      let t = Tl.create () in
      List.iteri (fun i w -> ignore (Tl.add t ~client:i ~weight:w)) ws;
      let r = Rng.create ~algo:Splitmix64 ~seed () in
      let arr = Array.of_list ws in
      match Tl.draw t r with
      | Some h -> arr.(Tl.client h) > 0
      | None -> List.for_all (fun w -> w <= 0) ws)

(* --- exact integer tickets ------------------------------------------------- *)

let test_units () =
  let one = D.units 1. in
  checki "one ticket" D.units_per_ticket one;
  checki "zero" 0 (D.units 0.);
  checki "2.5 tickets" (5 * one / 2) (D.units 2.5);
  checki "a positive weight is never zero units" 1 (D.units 1e-30);
  checki "saturates" D.max_units (D.units 1e300);
  checki "infinity saturates" D.max_units (D.units infinity);
  checkb "the saturation point is a ticket count" true
    (D.units (D.tickets D.max_units) = D.max_units);
  checkb "2^17 - 1 saturated clients stay below 2^61" true
    (((1 lsl 17) - 1) * D.max_units < 1 lsl 61);
  check (Alcotest.float 0.) "tickets inverts units" 2.5 (D.tickets (D.units 2.5));
  Alcotest.check_raises "negative" (Invalid_argument "Draw.units: negative or NaN weight")
    (fun () -> ignore (D.units (-1.)));
  Alcotest.check_raises "nan" (Invalid_argument "Draw.units: negative or NaN weight")
    (fun () -> ignore (D.units nan))

(* Hostile churn across fifteen orders of magnitude, then every weight back
   to one ticket: the case under which incrementally maintained float
   totals drift (a tree total off by a quarter ticket, one client winning
   two thirds of its share). Every total must come back to exactly 1000
   tickets and the draws to a fair split. *)
let test_churn_then_reset_is_exact () =
  let n = 1000 in
  let one = D.units 1. in
  List.iter
    (fun (mode, name) ->
      let d = D.of_mode mode in
      let hs = Array.init n (fun i -> D.add d ~client:i ~weight:one) in
      let r = Rng.create ~algo:Splitmix64 ~seed:2024 () in
      for k = 1 to 200_000 do
        let i = Rng.int_below r n in
        let w =
          if k mod 10 = 0 then Rng.float_unit r *. 1e12 else Rng.float_unit r
        in
        D.set_weight d hs.(i) (D.units w)
      done;
      Array.iter (fun h -> D.set_weight d h one) hs;
      checki (name ^ ": total is exactly 1000 tickets") (n * one) (D.total d);
      if mode <> D.List then begin
        let observed = Array.make n 0 in
        let r = Rng.create ~algo:Splitmix64 ~seed:7 () in
        for _ = 1 to 1_000_000 do
          let c = D.client_at d (D.draw_slot d r) in
          observed.(c) <- observed.(c) + 1
        done;
        let statistic =
          Chi.statistic ~observed ~expected:(Array.make n 1000.)
        in
        let p = Chi.p_value ~statistic ~df:(n - 1) in
        checkb (Printf.sprintf "%s: per-client chi-square p = %.3g >= 0.01" name p)
          true (p >= 0.01)
      end)
    [ (D.List, "list"); (D.Tree, "tree"); (D.Alias, "alias") ]

(* 10^5 random add/remove/set_weight steps over up to 1024 clients with
   weights across fifteen orders of magnitude, mirrored into all three
   backends. After every step each total equals the model's; every 100
   steps the model is re-summed from scratch, and for sampled winning
   values (plus both ends of the range) Tree and Alias name the winner a
   naive integer prefix scan in slot order finds. *)
let qcheck_wide_range_exact =
  QCheck.Test.make
    ~name:"tree matches an integer prefix scan over 10^5 wide-range mutations"
    ~count:3 QCheck.small_int
    (fun seed ->
      let ops = Rng.create ~algo:Splitmix64 ~seed () in
      let n = 1024 in
      let tree = Tl.create ~initial_capacity:2 () in
      let alias = Al.create ~initial_capacity:2 () in
      let lst = Ll.create () in
      let ht = Array.make n None and ha = Array.make n None
      and hl = Array.make n None in
      let model = Array.make n 0 in
      let model_total = ref 0 in
      let ok = ref true in
      let check_winners () =
        let resum = Array.fold_left ( + ) 0 model in
        if resum <> !model_total then ok := false;
        if resum > 0 then begin
          let order = ref [] in
          Tl.iter tree (fun h -> order := Tl.client h :: !order);
          let order = Array.of_list (List.rev !order) in
          let scan v =
            let acc = ref 0 and i = ref 0 in
            while !acc <= v do
              acc := !acc + model.(order.(!i));
              incr i
            done;
            order.(!i - 1)
          in
          let values =
            0 :: (resum - 1) :: List.init 8 (fun _ -> Rng.int_below ops resum)
          in
          List.iter
            (fun v ->
              let expected = Some (scan v) in
              if Option.map Tl.client (Tl.draw_with_value tree ~winning:v) <> expected
              then ok := false;
              if Option.map Al.client (Al.draw_with_value alias ~winning:v) <> expected
              then ok := false)
            values
        end
      in
      for step = 1 to 100_000 do
        let c = Rng.int_below ops n in
        (match (ht.(c), ha.(c), hl.(c)) with
        | None, None, None ->
            let w = D.units (wide_weight ops) in
            ht.(c) <- Some (Tl.add tree ~client:c ~weight:w);
            ha.(c) <- Some (Al.add alias ~client:c ~weight:w);
            hl.(c) <- Some (Ll.add lst ~client:c ~weight:w);
            model.(c) <- w;
            model_total := !model_total + w
        | Some t, Some a, Some l ->
            if Rng.int_below ops 4 = 0 then begin
              Tl.remove tree t;
              Al.remove alias a;
              Ll.remove lst l;
              ht.(c) <- None;
              ha.(c) <- None;
              hl.(c) <- None;
              model_total := !model_total - model.(c);
              model.(c) <- 0
            end
            else begin
              let w = D.units (wide_weight ops) in
              Tl.set_weight tree t w;
              Al.set_weight alias a w;
              Ll.set_weight lst l w;
              model_total := !model_total - model.(c) + w;
              model.(c) <- w
            end
        | _ -> ok := false);
        if
          Tl.total tree <> !model_total
          || Al.total alias <> !model_total
          || Ll.total lst <> !model_total
        then ok := false;
        if step mod 100 = 0 then check_winners ()
      done;
      !ok)

let test_list_total_stays_exact_over_many_mutations () =
  (* integer totals are exact: after thousands of wide-range updates the
     draw bound is exactly the sum of the live weights *)
  let t = Ll.create () in
  let handles = Array.init 10 (fun i -> Ll.add t ~client:i ~weight:(D.units 1.1)) in
  let r = rng () in
  for _ = 1 to 10_000 do
    let h = handles.(Rng.int_below r 10) in
    Ll.set_weight t h (D.units (wide_weight r))
  done;
  let exact = List.fold_left (fun acc (_, w) -> acc + w) 0 (Ll.to_list t) in
  checki "total is the exact sum" exact (Ll.total t)

let test_tree_drift_stability () =
  (* the churn that used to make float totals drift: a draw must always
     return a live positive-weight client, and the total must stay the
     exact sum of the live weights *)
  let t = Tl.create () in
  let handles = Array.init 32 (fun i -> Tl.add t ~client:i ~weight:(D.units 1.)) in
  let r = rng () in
  for _ = 1 to 20_000 do
    let h = handles.(Rng.int_below r 32) in
    Tl.set_weight t h (D.units (Rng.float_unit r));
    match Tl.draw t r with
    | Some h -> if Tl.weight t h <= 0 then Alcotest.fail "zero-weight winner"
    | None -> if Tl.total t > 0 then Alcotest.fail "draw failed with positive total"
  done;
  checki "total is the exact sum"
    (List.fold_left (fun acc (_, w) -> acc + w) 0 (Tl.to_list t))
    (Tl.total t)

(* --- unified Draw front-end -------------------------------------------------- *)

let modes = [ (D.List, "list"); (D.Tree, "tree"); (D.Alias, "alias") ]

let test_draw_wrapper_ops () =
  List.iter
    (fun (mode, _) ->
      let t = D.of_mode mode in
      let a = D.add t ~client:"a" ~weight:2 in
      let b = D.add t ~client:"b" ~weight:1 in
      checki "size" 2 (D.size t);
      checki "total" 3 (D.total t);
      checki "weight readback" 2 (D.weight t a);
      check Alcotest.string "client readback" "b" (D.client b);
      D.set_weight t a 5;
      checki "total after set" 6 (D.total t);
      D.remove t b;
      checki "size after remove" 1 (D.size t);
      (match D.draw_client t (rng ()) with
      | Some "a" -> ()
      | _ -> Alcotest.fail "expected a to win");
      D.iter t (fun h -> check Alcotest.string "iter sees a" "a" (D.client h));
      D.remove t a;
      checkb "empty draw" true (D.draw t (rng ()) = None))
    modes

let test_draw_foreign_handle_rejected () =
  let l = D.of_mode D.List and tr = D.of_mode D.Tree in
  let h = D.add l ~client:"x" ~weight:1 in
  checkb "foreign handle rejected" true
    (match D.set_weight tr h 2 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_draw_backends_agree () =
  (* identical weights in identical scan order must pick identical winners
     for every winning value, whatever the backend *)
  let weights = [| 3; 0; 7; 2; 5; 0; 1 |] in
  let n = Array.length weights in
  let lst =
    (* the list prepends: add backwards so scans run in index order *)
    let l = Ll.create ~order:Ll.Unordered () in
    for i = n - 1 downto 0 do
      ignore (Ll.add l ~client:i ~weight:weights.(i))
    done;
    D.of_list l
  in
  let tree = D.of_mode D.Tree in
  Array.iteri (fun i w -> ignore (D.add tree ~client:i ~weight:w)) weights;
  let alias = D.of_mode D.Alias in
  Array.iteri (fun i w -> ignore (D.add alias ~client:i ~weight:w)) weights;
  let total = Array.fold_left ( + ) 0 weights in
  checki "list total" total (D.total lst);
  checki "tree total" total (D.total tree);
  checki "alias total" total (D.total alias);
  for v = 0 to total do
    let winner t = Option.map D.client (D.draw_with_value t ~winning:v) in
    let wl = winner lst and wt = winner tree and wa = winner alias in
    if wl <> wt || wt <> wa then
      Alcotest.failf "disagree at %d: list=%s tree=%s alias=%s" v
        (match wl with Some i -> string_of_int i | None -> "-")
        (match wt with Some i -> string_of_int i | None -> "-")
        (match wa with Some i -> string_of_int i | None -> "-")
  done

let test_draw_backend_distributions () =
  (* every backend must honour ticket proportions (chi-square) *)
  let weights = [| 10; 2; 5; 1; 2 |] in
  List.iter
    (fun (mode, name) ->
      let t = D.of_mode mode in
      Array.iteri (fun i w -> ignore (D.add t ~client:i ~weight:w)) weights;
      checkb
        (Printf.sprintf "%s chi-square ok" name)
        true
        (distribution_matches (fun r -> D.draw_client t r) weights ~draws:20_000))
    modes

let test_draw_first_class_backends () =
  List.iter
    (fun (mode, _) ->
      let (module B : D.S) = D.backend mode in
      let t = B.create () in
      ignore (B.add t ~client:42 ~weight:3);
      checki "total" 3 (B.total t);
      match B.draw_client t (rng ()) with
      | Some 42 -> ()
      | _ -> Alcotest.fail "expected the only client to win")
    modes

(* --- flat backends: alias, draw_slot, draw_k --------------------------------- *)

let test_draw_slot_matches_draw_client () =
  (* a draw_slot/client_at pair and a draw_client consume the same
     randomness and name the same winner on every backend *)
  let weights = [| 10; 2; 5; 1; 2 |] in
  List.iter
    (fun (mode, name) ->
      let mk () =
        let t = D.of_mode mode in
        Array.iteri (fun i w -> ignore (D.add t ~client:i ~weight:w)) weights;
        t
      in
      let t1 = mk () and t2 = mk () in
      let r1 = rng () and r2 = rng () in
      for _ = 1 to 1_000 do
        let s = D.draw_slot t1 r1 in
        checkb (name ^ " slot nonnegative") true (s >= 0);
        let via_slot = D.client_at t1 s in
        match D.draw_client t2 r2 with
        | Some c -> checki (name ^ " same winner") c via_slot
        | None -> Alcotest.fail "draw_client returned None"
      done)
    modes

let test_draw_k_matches_sequential () =
  (* one draw_k call and k sequential draw_slot calls are the same lottery
     sequence on every backend (the batch only amortizes the rebuild) *)
  let weights = [| 3; 7; 2; 5; 1 |] in
  List.iter
    (fun (mode, name) ->
      let mk () =
        let t = D.of_mode mode in
        Array.iteri (fun i w -> ignore (D.add t ~client:i ~weight:w)) weights;
        t
      in
      let t1 = mk () and t2 = mk () in
      let r1 = rng () and r2 = rng () in
      let out = Array.make 64 (-1) in
      let n = D.draw_k t1 r1 ~k:64 out in
      checki (name ^ " batch filled") 64 n;
      for i = 0 to n - 1 do
        let s = D.draw_slot t2 r2 in
        checki
          (Printf.sprintf "%s draw %d matches sequential" name i)
          (D.client_at t2 s) out.(i)
      done)
    modes

let test_draw_k_empty_and_small () =
  let t = D.of_mode D.Alias in
  let out = Array.make 8 (-1) in
  checki "empty draws nothing" 0 (D.draw_k t (rng ()) ~k:8 out);
  ignore (D.add t ~client:1 ~weight:0);
  checki "all-zero draws nothing" 0 (D.draw_k t (rng ()) ~k:8 out);
  ignore (D.add t ~client:2 ~weight:1);
  checki "k capped by scratch length" 8 (D.draw_k t (rng ()) ~k:100 out);
  Array.iter (fun c -> checki "only funded client wins" 2 c) out

let test_alias_distribution_after_churn () =
  (* after a mutation burst, the rebuilt alias table must still honour the
     surviving weights exactly (chi-square) *)
  let al = Al.create ~initial_capacity:2 () in
  let handles = Array.init 12 (fun i -> Al.add al ~client:i ~weight:1) in
  let r = rng () in
  for _ = 1 to 500 do
    let i = Rng.int_below r 12 in
    Al.set_weight al handles.(i) (Rng.int_below r 10)
  done;
  (* final reshape into a known distribution over a subset *)
  let weights = [| 10; 2; 5; 1; 2 |] in
  Array.iteri
    (fun i h ->
      if i < Array.length weights then Al.set_weight al h weights.(i)
      else Al.remove al h)
    handles;
  let observed = Array.make (Array.length weights) 0 in
  for _ = 1 to 20_000 do
    match Al.draw_client al r with
    | Some i -> observed.(i) <- observed.(i) + 1
    | None -> Alcotest.fail "no winner"
  done;
  checkb "chi-square ok after churn" true
    (Chi.goodness_of_fit ~observed ~weights:(Array.map float_of_int weights) ())

let test_alias_arena_bookkeeping () =
  let c = Al.create ~initial_capacity:2 () in
  let a = Al.add c ~client:"a" ~weight:2 in
  let b = Al.add c ~client:"b" ~weight:6 in
  checki "total" 8 (Al.total c);
  (* grow across the initial capacity, remove, re-add into the freed slot *)
  let more = Array.init 10 (fun i -> Al.add c ~client:(string_of_int i) ~weight:1) in
  Al.remove c a;
  Al.remove c more.(0);
  let z = Al.add c ~client:"z" ~weight:4 in
  checki "total tracks churn" (8 + 10 - 2 - 1 + 4) (Al.total c);
  checkb "z live" true (Al.mem c z);
  checkb "a dead" false (Al.mem c a);
  checki "b weight" 6 (Al.weight c b);
  (* the last winning value lands on a live client *)
  match Al.draw_with_value c ~winning:(Al.total c - 1) with
  | Some h -> checkb "winner live" true (Al.mem c h)
  | None -> Alcotest.fail "no winner"

(* --- Section 2 guarantees --------------------------------------------------- *)

let test_binomial_moments () =
  (* n lotteries, client with p = t/T: E[w] = np, Var = np(1-p) *)
  let t = Ll.create () in
  ignore (Ll.add t ~client:`Us ~weight:3);
  ignore (Ll.add t ~client:`Them ~weight:7);
  let r = rng () in
  let runs = 300 and n = 200 in
  let wins = Array.make runs 0. in
  for run = 0 to runs - 1 do
    let w = ref 0 in
    for _ = 1 to n do
      if Ll.draw_client t r = Some `Us then incr w
    done;
    wins.(run) <- float_of_int !w
  done;
  let p = 0.3 in
  let mean = Core.Descriptive.mean wins in
  let var = Core.Descriptive.variance wins in
  checkb
    (Printf.sprintf "mean %f near np=%f" mean (float_of_int n *. p))
    true
    (abs_float (mean -. (float_of_int n *. p)) < 3.);
  checkb
    (Printf.sprintf "variance %f near np(1-p)=%f" var (float_of_int n *. p *. (1. -. p)))
    true
    (abs_float (var -. (float_of_int n *. p *. (1. -. p))) < 10.)

let test_geometric_first_win () =
  (* E[lotteries until first win] = 1/p *)
  let t = Ll.create () in
  ignore (Ll.add t ~client:`Us ~weight:1);
  ignore (Ll.add t ~client:`Them ~weight:4);
  let r = rng () in
  let trials = 3_000 in
  let total = ref 0 in
  for _ = 1 to trials do
    let n = ref 1 in
    while Ll.draw_client t r <> Some `Us do
      incr n
    done;
    total := !total + !n
  done;
  let avg = float_of_int !total /. float_of_int trials in
  checkb (Printf.sprintf "mean first win %f near 5" avg) true (abs_float (avg -. 5.) < 0.35)

let () =
  Alcotest.run "draw"
    [
      ( "list",
        [
          Alcotest.test_case "figure 1 walkthrough" `Quick test_figure1_walkthrough;
          Alcotest.test_case "move-to-front relocation" `Quick test_move_to_front;
          Alcotest.test_case "move-to-front shortens searches" `Quick
            test_mtf_shortens_searches;
          Alcotest.test_case "sorted order shortens searches" `Slow
            test_sorted_order_shortens_searches;
          Alcotest.test_case "add/remove/set_weight" `Quick test_list_add_remove_weights;
          Alcotest.test_case "empty and all-zero" `Quick test_list_empty_and_zero;
          Alcotest.test_case "zero weight never wins" `Quick test_zero_weight_never_wins;
          Alcotest.test_case "ticket-proportional (chi-square)" `Slow
            test_list_distribution;
          Alcotest.test_case "total exact after many mutations" `Quick
            test_list_total_stays_exact_over_many_mutations;
        ] );
      ( "tree",
        [
          Alcotest.test_case "prefix-sum selection" `Quick test_tree_matches_prefix_sums;
          Alcotest.test_case "update/remove/slot reuse/grow" `Quick
            test_tree_update_remove_reuse;
          Alcotest.test_case "ticket-proportional (chi-square)" `Slow
            test_tree_distribution;
          Alcotest.test_case "agrees with the list lottery" `Quick test_tree_and_list_agree;
          Alcotest.test_case "stable under float drift" `Quick test_tree_drift_stability;
        ] );
      ( "exact-tickets",
        [
          Alcotest.test_case "units: resolution, floor and saturation" `Quick
            test_units;
          Alcotest.test_case "churn then reset is exact and fair" `Slow
            test_churn_then_reset_is_exact;
        ] );
      ( "unified-draw",
        [
          Alcotest.test_case "wrapper ops on every backend" `Quick
            test_draw_wrapper_ops;
          Alcotest.test_case "foreign handle rejected" `Quick
            test_draw_foreign_handle_rejected;
          Alcotest.test_case "backends agree on every winning value" `Quick
            test_draw_backends_agree;
          Alcotest.test_case "ticket-proportional on every backend (chi-square)"
            `Slow test_draw_backend_distributions;
          Alcotest.test_case "first-class backend modules" `Quick
            test_draw_first_class_backends;
        ] );
      ( "flat-backends",
        [
          Alcotest.test_case "draw_slot matches draw_client" `Quick
            test_draw_slot_matches_draw_client;
          Alcotest.test_case "draw_k matches sequential draws" `Quick
            test_draw_k_matches_sequential;
          Alcotest.test_case "draw_k empty/zero/capped" `Quick
            test_draw_k_empty_and_small;
          Alcotest.test_case "alias distribution after churn (chi-square)" `Slow
            test_alias_distribution_after_churn;
          Alcotest.test_case "alias arena bookkeeping" `Quick
            test_alias_arena_bookkeeping;
        ] );
      ( "section-2-math",
        [
          Alcotest.test_case "binomial win moments" `Slow test_binomial_moments;
          Alcotest.test_case "geometric first-win expectation" `Slow
            test_geometric_first_win;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_tree_total_is_sum;
            qcheck_tree_draw_in_range;
            qcheck_tree_matches_reference_model;
            qcheck_wide_range_exact;
          ] );
    ]
