type phase = Valuation | Draw | Dispatch | Publish

type t = {
  clock : unit -> int;
  valuation : Hdr.t;
  draw : Hdr.t;
  dispatch : Hdr.t;
  publish : Hdr.t;
}

let create ~clock () =
  let mk () = Hdr.create ~sub_bits:5 ~max_value:(1 lsl 40) () in
  { clock; valuation = mk (); draw = mk (); dispatch = mk (); publish = mk () }

let start t = t.clock ()

let hdr t = function
  | Valuation -> t.valuation
  | Draw -> t.draw
  | Dispatch -> t.dispatch
  | Publish -> t.publish

let stop t phase t0 = Hdr.record (hdr t phase) (t.clock () - t0)

let phase_name = function
  | Valuation -> "valuation"
  | Draw -> "draw"
  | Dispatch -> "dispatch"
  | Publish -> "publish"

let summary t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-10s %10s %10s %24s\n" "phase" "count" "total(ms)"
       "p50/p90/p99 (us)");
  List.iter
    (fun phase ->
      let h = hdr t phase in
      let n = Hdr.count h in
      let pcts =
        if n = 0 then "-"
        else
          Printf.sprintf "%.2f/%.2f/%.2f"
            (Hdr.percentile h 50. /. 1000.)
            (Hdr.percentile h 90. /. 1000.)
            (Hdr.percentile h 99. /. 1000.)
      in
      Buffer.add_string buf
        (Printf.sprintf "%-10s %10d %10.2f %24s\n" (phase_name phase) n
           (float_of_int (Hdr.sum h) /. 1e6)
           pcts))
    [ Valuation; Draw; Dispatch; Publish ];
  Buffer.contents buf
