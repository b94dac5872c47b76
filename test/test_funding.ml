(* Tickets & currencies: valuation (paper Figure 3), activation propagation
   (§4.4), inflation (§3.2), acyclicity, lifecycle, and randomized invariant
   checks. *)

module F = Core.Funding

let check = Alcotest.check
let checkf msg = check (Alcotest.float 1e-9) msg
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* Build the paper's Figure 3 graph:
   base -> alice (1000.base), bob (2000.base)
   alice -> task1 (100.alice, inactive), task2 (200.alice)
   bob -> task3 (100.bob)
   task2 issues thread2=200, thread3=300 (held); task3 issues thread4=100. *)
let figure3 () =
  let sys = F.create_system () in
  let base = F.base sys in
  let mk name ~from ~amount =
    let c = F.make_currency sys ~name in
    let t = F.issue sys ~currency:from ~amount in
    F.fund sys ~ticket:t ~currency:c;
    c
  in
  let alice = mk "alice" ~from:base ~amount:1000 in
  let bob = mk "bob" ~from:base ~amount:2000 in
  let task1 = mk "task1" ~from:alice ~amount:100 in
  let task2 = mk "task2" ~from:alice ~amount:200 in
  let task3 = mk "task3" ~from:bob ~amount:100 in
  let hold c amount =
    let t = F.issue sys ~currency:c ~amount in
    F.hold sys t;
    t
  in
  let thread1 = F.issue sys ~currency:task1 ~amount:100 in
  let thread2 = hold task2 200 in
  let thread3 = hold task2 300 in
  let thread4 = hold task3 100 in
  (sys, base, alice, bob, task1, task2, task3, thread1, thread2, thread3, thread4)

let test_figure3_values () =
  let sys, _, alice, bob, task1, task2, task3, _t1, t2, t3, t4 = figure3 () in
  F.check_invariants sys;
  checkf "thread2 = 400" 400. (F.ticket_value sys t2);
  checkf "thread3 = 600" 600. (F.ticket_value sys t3);
  checkf "thread4 = 2000" 2000. (F.ticket_value sys t4);
  checkf "task2 currency = 1000" 1000. (F.currency_value sys task2);
  checkf "task3 currency = 2000" 2000. (F.currency_value sys task3);
  (* task1 is inactive: its backing ticket is inactive and alice's active
     amount only counts the task2 allocation *)
  checki "alice active amount" 200 (F.active_amount alice);
  checki "bob active amount" 100 (F.active_amount bob);
  checkf "task1 value 0 while inactive" 0. (F.currency_value sys task1)

let test_figure3_task1_wakes () =
  let sys, _, alice, _, _task1, _, _, thread1, t2, _, _ = figure3 () in
  (* thread1 starts competing: task1 activates and dilutes alice *)
  F.hold sys thread1;
  F.check_invariants sys;
  checki "alice active amount" 300 (F.active_amount alice);
  checkf "thread2 drops to (1000*200/300)*(200/500)" (2000. /. 3. *. 0.4)
    (F.ticket_value sys t2);
  checkf "thread1 now worth its task1 share" (1000. /. 3.)
    (F.ticket_value sys thread1);
  (* and back *)
  F.suspend sys thread1;
  F.check_invariants sys;
  checki "alice active amount restored" 200 (F.active_amount alice);
  checkf "thread2 restored" 400. (F.ticket_value sys t2)

let test_base_valuation () =
  let sys = F.create_system () in
  let t = F.issue sys ~currency:(F.base sys) ~amount:123 in
  F.hold sys t;
  checkf "base ticket is face value" 123. (F.ticket_value sys t);
  F.suspend sys t;
  checkf "inactive ticket is worthless" 0. (F.ticket_value sys t)

let test_activation_propagation_chain () =
  (* base -> a -> b -> c, client at the bottom: activity of the whole chain
     follows the single held ticket *)
  let sys = F.create_system () in
  let base = F.base sys in
  let mk name from amount =
    let c = F.make_currency sys ~name in
    let t = F.issue sys ~currency:from ~amount in
    F.fund sys ~ticket:t ~currency:c;
    (c, t)
  in
  let a, ta = mk "a" base 100 in
  let b, tb = mk "b" a 10 in
  let c, tc = mk "c" b 10 in
  let held = F.issue sys ~currency:c ~amount:1 in
  checkb "backing inactive before any client" false (F.is_active ta);
  F.hold sys held;
  F.check_invariants sys;
  checkb "ta active" true (F.is_active ta);
  checkb "tb active" true (F.is_active tb);
  checkb "tc active" true (F.is_active tc);
  checkf "full value flows down" 100. (F.ticket_value sys held);
  F.suspend sys held;
  F.check_invariants sys;
  checkb "ta inactive again" false (F.is_active ta);
  checkb "tb inactive again" false (F.is_active tb);
  checki "a active amount" 0 (F.active_amount a);
  F.resume sys held;
  checkb "reactivates" true (F.is_active ta)

let test_sibling_share_shift () =
  (* two clients in one currency: one blocking doubles the other's value *)
  let sys = F.create_system () in
  let base = F.base sys in
  let cur = F.make_currency sys ~name:"users" in
  let t = F.issue sys ~currency:base ~amount:600 in
  F.fund sys ~ticket:t ~currency:cur;
  let c1 = F.issue sys ~currency:cur ~amount:100 in
  let c2 = F.issue sys ~currency:cur ~amount:200 in
  F.hold sys c1;
  F.hold sys c2;
  checkf "c1 share" 200. (F.ticket_value sys c1);
  checkf "c2 share" 400. (F.ticket_value sys c2);
  F.suspend sys c2;
  checkf "c1 absorbs full value" 600. (F.ticket_value sys c1);
  checkf "c2 worthless while suspended" 0. (F.ticket_value sys c2)

let test_inflation_contained () =
  (* paper §3.2/§5.5: inflation inside one currency must not leak out *)
  let sys = F.create_system () in
  let base = F.base sys in
  let mk name =
    let c = F.make_currency sys ~name in
    let t = F.issue sys ~currency:base ~amount:1000 in
    F.fund sys ~ticket:t ~currency:c;
    c
  in
  let a = mk "a" and b = mk "b" in
  let a1 = F.issue sys ~currency:a ~amount:100 in
  let b1 = F.issue sys ~currency:b ~amount:100 in
  F.hold sys a1;
  F.hold sys b1;
  checkf "a1 before" 1000. (F.ticket_value sys a1);
  (* b inflates: issue 300 more inside b *)
  let b2 = F.issue sys ~currency:b ~amount:300 in
  F.hold sys b2;
  F.check_invariants sys;
  checkf "a1 unchanged by b's inflation" 1000. (F.ticket_value sys a1);
  checkf "b1 diluted 4x" 250. (F.ticket_value sys b1);
  checkf "b2 gets the rest" 750. (F.ticket_value sys b2)

let test_set_amount () =
  let sys = F.create_system () in
  let base = F.base sys in
  let t = F.issue sys ~currency:base ~amount:100 in
  F.hold sys t;
  checki "active amount" 100 (F.active_amount base);
  F.set_amount sys t 250;
  checki "inflated" 250 (F.active_amount base);
  checki "ticket amount" 250 (F.amount t);
  F.set_amount sys t 0;
  checki "deflated to zero" 0 (F.active_amount base);
  F.set_amount sys t 10;
  checki "re-inflated" 10 (F.active_amount base);
  F.check_invariants sys;
  Alcotest.check_raises "negative" (Invalid_argument "Funding.set_amount: negative amount")
    (fun () -> F.set_amount sys t (-1))

let test_set_amount_zero_crossing_propagates () =
  (* deflating a currency's only active ticket to zero must deactivate its
     backing tickets, and back *)
  let sys = F.create_system () in
  let base = F.base sys in
  let c = F.make_currency sys ~name:"c" in
  let backing = F.issue sys ~currency:base ~amount:50 in
  F.fund sys ~ticket:backing ~currency:c;
  let held = F.issue sys ~currency:c ~amount:10 in
  F.hold sys held;
  checkb "backing active" true (F.is_active backing);
  F.set_amount sys held 0;
  F.check_invariants sys;
  checkb "backing deactivated on zero" false (F.is_active backing);
  F.set_amount sys held 5;
  F.check_invariants sys;
  checkb "backing reactivated" true (F.is_active backing)

let test_cycle_rejected () =
  let sys = F.create_system () in
  let a = F.make_currency sys ~name:"a" in
  let b = F.make_currency sys ~name:"b" in
  let t_ab = F.issue sys ~currency:a ~amount:10 in
  F.fund sys ~ticket:t_ab ~currency:b;
  (* now b depends on a; funding a with a b-denominated ticket is a cycle *)
  let t_ba = F.issue sys ~currency:b ~amount:10 in
  checkb "cycle raises" true
    (match F.fund sys ~ticket:t_ba ~currency:a with
    | () -> false
    | exception F.Cycle _ -> true);
  (* self-funding is rejected outright *)
  let t_aa = F.issue sys ~currency:a ~amount:1 in
  checkb "self-funding rejected" true
    (match F.fund sys ~ticket:t_aa ~currency:a with
    | () -> false
    | exception Invalid_argument _ -> true);
  F.check_invariants sys

let test_deep_cycle_rejected () =
  let sys = F.create_system () in
  let names = [ "c1"; "c2"; "c3"; "c4" ] in
  let curs = List.map (fun name -> F.make_currency sys ~name) names in
  let rec chain = function
    | a :: (b :: _ as rest) ->
        let t = F.issue sys ~currency:a ~amount:1 in
        F.fund sys ~ticket:t ~currency:b;
        chain rest
    | _ -> ()
  in
  chain curs;
  let c1 = List.hd curs and c4 = List.nth curs 3 in
  let t = F.issue sys ~currency:c4 ~amount:1 in
  checkb "long cycle rejected" true
    (match F.fund sys ~ticket:t ~currency:c1 with
    | () -> false
    | exception F.Cycle _ -> true)

let test_duplicate_names () =
  let sys = F.create_system () in
  ignore (F.make_currency sys ~name:"x");
  checkb "duplicate" true
    (match F.make_currency sys ~name:"x" with
    | _ -> false
    | exception F.Duplicate_name "x" -> true);
  checkb "base reserved" true
    (match F.make_currency sys ~name:"base" with
    | _ -> false
    | exception F.Duplicate_name _ -> true)

(* Thread currencies are unnamed: never indexed, never a clash, rendered
   as thread:<id>:<name> wherever a name is printed. *)
let test_thread_currencies_unnamed () =
  let sys = F.create_system () in
  let finds name c =
    match F.find_currency sys name with Some c' -> c' == c | None -> false
  in
  let rendered = F.make_currency sys ~name:"thread:3:w" in
  let raw = F.make_currency sys ~name:"w" in
  let th = F.make_thread_currency sys ~thread:3 ~name:"w" in
  let twin = F.make_thread_currency sys ~thread:3 ~name:"w" in
  check Alcotest.string "rendered on demand" "thread:3:w" (F.currency_name th);
  checkb "distinct records" true (th != twin);
  checkb "rendered name finds the user's currency" true
    (finds "thread:3:w" rendered);
  checkb "raw name finds the user's currency" true (finds "w" raw);
  F.remove_currency sys twin;
  checkb "removing a thread currency keeps the user's names" true
    (finds "thread:3:w" rendered && finds "w" raw);
  let v = F.make_thread_currency sys ~thread:5 ~name:"v" in
  F.fund sys ~ticket:(F.issue sys ~currency:(F.base sys) ~amount:10) ~currency:v;
  let a = F.make_currency sys ~name:"a" in
  F.fund sys ~ticket:(F.issue sys ~currency:v ~amount:1) ~currency:a;
  check Alcotest.string "cycle message renders the name"
    "funding thread:5:v with a ticket denominated in a"
    (match F.fund sys ~ticket:(F.issue sys ~currency:a ~amount:1) ~currency:v with
    | () -> "no cycle"
    | exception F.Cycle msg -> msg);
  let has hay needle = Core.Corpus.count_substring ~haystack:hay ~needle > 0 in
  checkb "dot renders the name" true
    (has (F.to_dot sys) "label=\"thread:5:v\\nactive");
  checkb "pp renders the name" true
    (has (Format.asprintf "%a" (F.pp_currency sys) v) "currency thread:5:v");
  checkb "a user may take a live thread currency's rendered name" true
    (finds "thread:5:v" (F.make_currency sys ~name:"thread:5:v"));
  checkb "negative thread id rejected" true
    (match F.make_thread_currency sys ~thread:(-1) ~name:"x" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  F.check_invariants sys

let test_find_and_list () =
  let sys = F.create_system () in
  let a = F.make_currency sys ~name:"a" in
  checkb "find a" true
    (match F.find_currency sys "a" with Some c -> c == a | None -> false);
  checkb "find missing" true (F.find_currency sys "zz" = None);
  checki "currencies incl. base" 2 (List.length (F.currencies sys));
  checkb "base first" true (F.is_base (List.hd (F.currencies sys)))

let test_remove_currency () =
  let sys = F.create_system () in
  let a = F.make_currency sys ~name:"a" in
  let t = F.issue sys ~currency:(F.base sys) ~amount:5 in
  F.fund sys ~ticket:t ~currency:a;
  checkb "in use (backing)" true
    (match F.remove_currency sys a with
    | () -> false
    | exception F.In_use _ -> true);
  F.unfund sys t;
  let issued = F.issue sys ~currency:a ~amount:5 in
  checkb "in use (issued)" true
    (match F.remove_currency sys a with
    | () -> false
    | exception F.In_use _ -> true);
  F.destroy_ticket sys issued;
  F.remove_currency sys a;
  checkb "gone" true (F.find_currency sys "a" = None);
  checkb "base protected" true
    (match F.remove_currency sys (F.base sys) with
    | () -> false
    | exception F.In_use _ -> true)

let test_destroy_ticket_everywhere () =
  let sys = F.create_system () in
  let base = F.base sys in
  let c = F.make_currency sys ~name:"c" in
  (* backing ticket *)
  let t1 = F.issue sys ~currency:base ~amount:10 in
  F.fund sys ~ticket:t1 ~currency:c;
  (* held ticket *)
  let t2 = F.issue sys ~currency:c ~amount:4 in
  F.hold sys t2;
  (* unattached *)
  let t3 = F.issue sys ~currency:c ~amount:4 in
  F.destroy_ticket sys t2;
  F.destroy_ticket sys t1;
  F.destroy_ticket sys t3;
  F.check_invariants sys;
  checki "no backing left" 0 (List.length (F.backing_tickets sys c));
  checki "no issued left" 0 (List.length (F.issued_tickets sys c));
  checkb "destroyed ticket unusable" true
    (match F.hold sys t2 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_lifecycle_errors () =
  let sys = F.create_system () in
  let t = F.issue sys ~currency:(F.base sys) ~amount:1 in
  Alcotest.check_raises "suspend unheld" (Invalid_argument "Funding.suspend: ticket not held")
    (fun () -> F.suspend sys t);
  Alcotest.check_raises "unfund unattached" (Invalid_argument "Funding.unfund: ticket not backing")
    (fun () -> F.unfund sys t);
  let c = F.make_currency sys ~name:"c" in
  F.fund sys ~ticket:t ~currency:c;
  Alcotest.check_raises "hold a backing ticket"
    (Invalid_argument "Funding.hold: ticket is backing a currency") (fun () ->
      F.hold sys t);
  checkb "negative issue rejected" true
    (match F.issue sys ~currency:c ~amount:(-1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Money conservation: value flows through the graph without being created.
   The total base-unit value held by competing tickets can never exceed the
   base currency's active amount, and equals it exactly when every funding
   chain terminates in an active holder. *)
let qcheck_value_conservation =
  let module Rng = Core.Rng in
  QCheck.Test.make ~name:"held value never exceeds (and in trees equals) base value"
    ~count:80 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~algo:Splitmix64 ~seed () in
      let sys = F.create_system () in
      let base = F.base sys in
      (* random tree of currencies, each funded from an earlier one *)
      let currencies = ref [| base |] in
      let n_cur = 1 + Rng.int_below rng 6 in
      for i = 0 to n_cur - 1 do
        let from = Rng.choose rng !currencies in
        let c = F.make_currency sys ~name:(Printf.sprintf "c%d" i) in
        let t = F.issue sys ~currency:from ~amount:(1 + Rng.int_below rng 500) in
        F.fund sys ~ticket:t ~currency:c;
        currencies := Array.append !currencies [| c |]
      done;
      (* one active holder per currency: every chain terminates actively *)
      let held =
        Array.to_list !currencies
        |> List.filter (fun c -> not (F.is_base c))
        |> List.map (fun c ->
               let t = F.issue sys ~currency:c ~amount:(1 + Rng.int_below rng 100) in
               F.hold sys t;
               t)
      in
      (* plus some held base tickets *)
      let held =
        if Rng.bool rng then begin
          let t = F.issue sys ~currency:base ~amount:(1 + Rng.int_below rng 100) in
          F.hold sys t;
          t :: held
        end
        else held
      in
      F.check_invariants sys;
      let total_held =
        List.fold_left (fun acc t -> acc +. F.ticket_value sys t) 0. held
      in
      let base_active = float_of_int (F.active_amount base) in
      (* full equality in an all-active tree; suspend one holder and the
         total can only drop *)
      let equal_when_active = abs_float (total_held -. base_active) < 1e-6 in
      let still_bounded =
        match held with
        | first :: _ ->
            F.suspend sys first;
            let t2 =
              List.fold_left (fun acc t -> acc +. F.ticket_value sys t) 0. held
            in
            t2 <= float_of_int (F.active_amount base) +. 1e-6
        | [] -> true
      in
      equal_when_active && still_bounded)

(* Randomized operation sequences must never break the structural
   invariants. *)
let qcheck_random_ops_keep_invariants =
  let module Rng = Core.Rng in
  QCheck.Test.make ~name:"random funding operations preserve invariants" ~count:60
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~algo:Splitmix64 ~seed () in
      let sys = F.create_system () in
      let currencies = ref [ F.base sys ] in
      let tickets = ref [] in
      for i = 0 to 199 do
        (match Rng.int_below rng 8 with
        | 0 ->
            currencies :=
              F.make_currency sys ~name:(Printf.sprintf "c%d-%d" seed i) :: !currencies
        | 1 | 2 ->
            let denom = Rng.choose rng (Array.of_list !currencies) in
            tickets :=
              F.issue sys ~currency:denom ~amount:(Rng.int_below rng 100) :: !tickets
        | 3 when !tickets <> [] -> (
            let t = Rng.choose rng (Array.of_list !tickets) in
            let c = Rng.choose rng (Array.of_list !currencies) in
            try F.fund sys ~ticket:t ~currency:c
            with F.Cycle _ | Invalid_argument _ -> ())
        | 4 when !tickets <> [] -> (
            let t = Rng.choose rng (Array.of_list !tickets) in
            try F.hold sys t with Invalid_argument _ -> ())
        | 5 when !tickets <> [] -> (
            let t = Rng.choose rng (Array.of_list !tickets) in
            try if Rng.bool rng then F.suspend sys t else F.resume sys t
            with Invalid_argument _ -> ())
        | 6 when !tickets <> [] -> (
            let t = Rng.choose rng (Array.of_list !tickets) in
            try F.set_amount sys t (Rng.int_below rng 50)
            with Invalid_argument _ -> ())
        | 7 when !tickets <> [] ->
            let t = Rng.choose rng (Array.of_list !tickets) in
            (try F.destroy_ticket sys t with Invalid_argument _ -> ());
            tickets := List.filter (fun t' -> t' != t) !tickets
        | _ -> ());
        F.check_invariants sys
      done;
      true)

(* From-scratch valuation through the public accessors only, bypassing the
   incremental caches. Mirrors the cached arithmetic operation-for-operation
   (same fold order over the backing list, same value/active division), so
   agreement below can be asserted with exact float equality. *)
let scratch_value sys root =
  let memo = Hashtbl.create 16 in
  let rec unit c =
    if F.is_base c then 1.
    else if F.active_amount c = 0 then 0.
    else
      match Hashtbl.find_opt memo (F.currency_id c) with
      | Some x -> x
      | None ->
          Hashtbl.replace memo (F.currency_id c) 0.;
          let x = value c /. float_of_int (F.active_amount c) in
          Hashtbl.replace memo (F.currency_id c) x;
          x
  and value c =
    if F.is_base c then float_of_int (F.active_amount c)
    else
      List.fold_left
        (fun acc t ->
          if F.is_active t then
            acc +. (float_of_int (F.amount t) *. unit (F.denomination t))
          else acc)
        0. (F.backing_tickets sys c)
  in
  value root

let scratch_unit sys c =
  if F.is_base c then 1.
  else if F.active_amount c = 0 then 0.
  else scratch_value sys c /. float_of_int (F.active_amount c)

(* Tentpole property of the incremental valuation engine: after arbitrary
   mutation sequences on a multi-level graph, (1) every valid cache equals
   a from-scratch walk bit-for-bit, and (2) the scoped change events name
   every currency whose valuation moved — the contract the scheduler and
   resource managers rely on to revalue only O(dirtied) clients per draw.

   (2) is checked the way consumers use it: a subscriber that re-reads
   exactly the currencies reported since its last read (nothing else) must
   hold, after every mutation, each tracked currency's from-scratch value.
   The graph is left partially stale between full observations, so the
   lazy paths run too. Mutations span ticket amounts 1..10^12 (log-uniform),
   donate/revoke-style transfers between non-base currencies, and currency
   removal followed by creations that recycle the freed slots; 1000 runs of
   30 mutations cover 3 x 10^4 mutations. *)
let qcheck_incremental_valuation_exact =
  let module Rng = Core.Rng in
  QCheck.Test.make
    ~name:"incremental valuation = from-scratch; events cover every move"
    ~count:1000 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~algo:Splitmix64 ~seed:(seed + 7919) () in
      let sys = F.create_system () in
      let base = F.base sys in
      let amount () =
        let rec pow10 e = if e = 0 then 1 else 10 * pow10 (e - 1) in
        1 + Rng.int_below rng (pow10 (Rng.int_below rng 13))
      in
      let currencies = ref [ base ] in
      let tickets = ref [] in
      let transfers = ref [] in
      let pick l = Rng.choose rng (Array.of_list l) in
      let non_base () = List.filter (fun c -> not (F.is_base c)) !currencies in
      (* multi-level graph: each currency is funded from a random earlier
         one, so chains several levels deep (and diamonds) appear *)
      let next_name = ref 0 in
      let mk_currency () =
        let from = pick !currencies in
        incr next_name;
        let c = F.make_currency sys ~name:(Printf.sprintf "q%d-%d" seed !next_name) in
        let t = F.issue sys ~currency:from ~amount:(amount ()) in
        F.fund sys ~ticket:t ~currency:c;
        tickets := t :: !tickets;
        currencies := c :: !currencies;
        c
      in
      for _ = 0 to 5 + Rng.int_below rng 6 do
        ignore (mk_currency ())
      done;
      List.iter
        (fun c ->
          if (not (F.is_base c)) && Rng.bool rng then begin
            let t = F.issue sys ~currency:c ~amount:(amount ()) in
            F.hold sys t;
            tickets := t :: !tickets
          end)
        !currencies;
      (* the consumer: last read value per tracked currency, refreshed only
         for the currencies events reported *)
      let seen = Hashtbl.create 32 in
      let reported = ref [] in
      let sub =
        F.on_change sys (fun ch -> F.iter_changed ch (fun c -> reported := c :: !reported))
      in
      let read c = Hashtbl.replace seen (F.currency_id c) (c, F.currency_value sys c) in
      List.iter read !currencies;
      (* everything-observed shadow for the announce check *)
      let dirt = Hashtbl.create 32 in
      let sub_dirt =
        F.on_change sys (fun ch ->
            F.iter_changed ch (fun c -> Hashtbl.replace dirt (F.currency_id c) ()))
      in
      let shadow = Hashtbl.create 32 in
      let observe_all () =
        List.iter
          (fun c ->
            Hashtbl.replace shadow (F.currency_id c)
              (F.currency_value sys c, F.unit_value sys c))
          !currencies;
        Hashtbl.reset dirt
      in
      observe_all ();
      let forget c =
        Hashtbl.remove seen (F.currency_id c);
        Hashtbl.remove shadow (F.currency_id c);
        currencies := List.filter (fun c' -> c' != c) !currencies
      in
      let drop t =
        tickets := List.filter (fun t' -> t' != t) !tickets;
        transfers := List.filter (fun t' -> t' != t) !transfers
      in
      let ok = ref true in
      for _ = 0 to 29 do
        (match Rng.int_below rng 10 with
        | 0 -> read (mk_currency ())
        | 1 ->
            tickets := F.issue sys ~currency:(pick !currencies) ~amount:(amount ()) :: !tickets
        | 2 when !tickets <> [] -> (
            try F.fund sys ~ticket:(pick !tickets) ~currency:(pick !currencies)
            with F.Cycle _ | Invalid_argument _ -> ())
        | 3 when !tickets <> [] -> (
            try F.hold sys (pick !tickets) with Invalid_argument _ -> ())
        | 4 when !tickets <> [] -> (
            let t = pick !tickets in
            try if Rng.bool rng then F.suspend sys t else F.resume sys t
            with Invalid_argument _ -> ())
        | 5 when !tickets <> [] -> (
            let t = pick !tickets in
            try F.set_amount sys t (if Rng.int_below rng 8 = 0 then 0 else amount ())
            with Invalid_argument _ -> ())
        | 6 when !tickets <> [] ->
            let t = pick !tickets in
            (try F.destroy_ticket sys t with Invalid_argument _ -> ());
            drop t
        | 7 -> (
            (* donate: a ticket in the source's currency funds the target *)
            match non_base () with
            | _ :: _ :: _ as l -> (
                let src = pick l and dst = pick l in
                let t = F.issue sys ~currency:src ~amount:(amount ()) in
                tickets := t :: !tickets;
                try
                  F.fund sys ~ticket:t ~currency:dst;
                  transfers := t :: !transfers
                with F.Cycle _ | Invalid_argument _ -> ())
            | _ -> ())
        | 8 when !transfers <> [] ->
            (* revoke *)
            let t = pick !transfers in
            F.destroy_ticket sys t;
            drop t
        | 9 -> (
            (* tear a currency down and remove it; its slot is recycled by
               the next creation *)
            match non_base () with
            | [] -> ()
            | l ->
                let c = pick l in
                List.iter
                  (fun t ->
                    F.destroy_ticket sys t;
                    drop t)
                  (F.backing_tickets sys c @ F.issued_tickets sys c);
                F.remove_currency sys c;
                forget c;
                if Rng.bool rng then read (mk_currency ()))
        | _ -> ());
        (* the consumer re-reads what was reported, and only that *)
        List.iter
          (fun c -> if Hashtbl.mem seen (F.currency_id c) then read c)
          !reported;
        reported := [];
        Hashtbl.iter
          (fun _ (c, v) -> if v <> F.uncached_currency_value sys c then ok := false)
          seen;
        F.check_invariants sys;
        (* every few mutations: full exact cache agreement, and any move
           since the last full observation must have been announced *)
        if Rng.int_below rng 4 = 0 then begin
          List.iter
            (fun c ->
              let fresh_v = scratch_value sys c and fresh_u = scratch_unit sys c in
              let cached_v = F.currency_value sys c in
              let cached_u = F.unit_value sys c in
              if cached_v <> fresh_v || cached_u <> fresh_u then ok := false;
              match Hashtbl.find_opt shadow (F.currency_id c) with
              | Some (ov, ou)
                when (ov <> cached_v || ou <> cached_u)
                     && not (Hashtbl.mem dirt (F.currency_id c)) ->
                  ok := false
              | _ -> ())
            !currencies;
          observe_all ()
        end
      done;
      F.unsubscribe sys sub;
      F.unsubscribe sys sub_dirt;
      !ok)

(* Invalidation walks a currency's dependents — the tickets it issued whose
   funded currency holds a valid cache — not every ticket it issued. The
   flips must still come out in the order of the full issued walk
   (decreasing ticket id), and events list them most recent first. One
   group currency funds seven siblings: read in an order that exercises
   every insert position, one never read, one read and then staled by its
   own mutation (a stale entry the walk skips), one valid through an
   inactive backing ticket (which must still be flipped). *)
let test_dependents_flip_order () =
  let sys = F.create_system () in
  let g = F.make_currency sys ~name:"group" in
  F.fund sys ~ticket:(F.issue sys ~currency:(F.base sys) ~amount:1000) ~currency:g;
  let g_held = F.issue sys ~currency:g ~amount:50 in
  F.hold sys g_held;
  let sibling i ~active =
    let c = F.make_currency sys ~name:(Printf.sprintf "s%d" i) in
    let t = F.issue sys ~currency:g ~amount:(10 * i) in
    F.fund sys ~ticket:t ~currency:c;
    let h = F.issue sys ~currency:c ~amount:100 in
    if active then F.hold sys h;
    (c, t, h)
  in
  let s = Array.init 8 (fun i -> sibling i ~active:(i <> 7)) in
  let cur i = let c, _, _ = s.(i) in c in
  let read i = ignore (F.currency_value sys (cur i)) in
  (* single, head, tail, middle, middle, head *)
  List.iter read [ 4; 6; 1; 3; 2; 7 ];
  (* s2 goes stale through its own ticket, leaving a stale entry *)
  let _, _, h2 = s.(2) in
  F.set_amount sys h2 120;
  F.check_invariants sys;
  let order = ref [] in
  let sub =
    F.on_change sys (fun ch -> F.iter_changed ch (fun c -> order := F.currency_name c :: !order))
  in
  F.set_amount sys g_held 60;
  F.unsubscribe sys sub;
  check
    Alcotest.(list string)
    "flips: group, then valid siblings by decreasing ticket id; reported most recent first"
    [ "s1"; "s3"; "s4"; "s6"; "s7"; "group" ]
    (List.rev !order);
  F.check_invariants sys;
  (* the inactive backing ticket of s7 is linked again once s7 is read;
     unfunding it must unlink it, or the list keeps a detached ticket *)
  read 7;
  let _, t7, _ = s.(7) in
  F.unfund sys t7;
  F.check_invariants sys;
  F.destroy_ticket sys t7;
  ignore (sibling 8 ~active:true);
  F.check_invariants sys

let test_pp_smoke () =
  let sys, _, alice, _, _, _, _, _, t2, _, _ = figure3 () in
  let s = Format.asprintf "%a" F.pp_system sys in
  checkb "system rendering mentions alice" true
    (Core.Corpus.count_substring ~haystack:s ~needle:"alice" > 0);
  let cs = Format.asprintf "%a" (F.pp_currency sys) alice in
  checkb "currency rendering has active amount" true
    (Core.Corpus.count_substring ~haystack:cs ~needle:"active" > 0);
  let ts = Format.asprintf "%a" F.pp_ticket t2 in
  checkb "ticket rendering shows denomination" true
    (Core.Corpus.count_substring ~haystack:ts ~needle:"task2" > 0)

let test_valuation_snapshot_consistent () =
  (* one cached graph values many tickets coherently and cheaply *)
  let sys, _, _, _, _, task2, task3, _, t2, t3, t4 = figure3 () in
  checkf "t2" 400. (F.ticket_value sys t2);
  checkf "t3" 600. (F.ticket_value sys t3);
  checkf "t4" 2000. (F.ticket_value sys t4);
  checkf "currency" 1000. (F.currency_value sys task2);
  checkf "unit value" 2. (F.unit_value sys task2);
  checkf "unit value task3" 20. (F.unit_value sys task3)

let test_to_dot () =
  let sys, _, _, _, _task1, _, _, _, _, _, _ = figure3 () in
  let dot = F.to_dot sys in
  let has needle = Core.Corpus.count_substring ~haystack:dot ~needle > 0 in
  checkb "digraph" true (has "digraph funding");
  checkb "currencies as boxes" true (has "shape=box");
  checkb "held tickets as ellipses" true (has "shape=ellipse");
  checkb "alice labelled" true (has "alice");
  checkb "inactive edges dashed" true (has "style=dashed");
  checkb "amount labels" true (has "1000.base")

let () =
  Alcotest.run "funding"
    [
      ( "valuation",
        [
          Alcotest.test_case "paper figure 3 values" `Quick test_figure3_values;
          Alcotest.test_case "figure 3 with task1 active" `Quick test_figure3_task1_wakes;
          Alcotest.test_case "base tickets are face value" `Quick test_base_valuation;
          Alcotest.test_case "sibling share shift" `Quick test_sibling_share_shift;
          Alcotest.test_case "dependents flip in issued order" `Quick
            test_dependents_flip_order;
        ] );
      ( "activation",
        [
          Alcotest.test_case "propagation through a chain" `Quick
            test_activation_propagation_chain;
          Alcotest.test_case "set_amount zero crossings propagate" `Quick
            test_set_amount_zero_crossing_propagates;
        ] );
      ( "inflation",
        [
          Alcotest.test_case "contained within a currency" `Quick test_inflation_contained;
          Alcotest.test_case "set_amount updates sums" `Quick test_set_amount;
        ] );
      ( "graph",
        [
          Alcotest.test_case "direct cycle rejected" `Quick test_cycle_rejected;
          Alcotest.test_case "deep cycle rejected" `Quick test_deep_cycle_rejected;
          Alcotest.test_case "duplicate names" `Quick test_duplicate_names;
          Alcotest.test_case "thread currencies are unnamed" `Quick
            test_thread_currencies_unnamed;
          Alcotest.test_case "find and list" `Quick test_find_and_list;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "remove currency" `Quick test_remove_currency;
          Alcotest.test_case "destroy tickets in any state" `Quick
            test_destroy_ticket_everywhere;
          Alcotest.test_case "misuse raises" `Quick test_lifecycle_errors;
          Alcotest.test_case "graphviz export" `Quick test_to_dot;
          Alcotest.test_case "pretty printers" `Quick test_pp_smoke;
          Alcotest.test_case "valuation snapshots" `Quick test_valuation_snapshot_consistent;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_value_conservation;
            qcheck_random_ops_keep_invariants;
            qcheck_incremental_valuation_exact;
          ] );
    ]
