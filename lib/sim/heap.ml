(* Entries live in three parallel arrays — the (key, seq) ordering pair in
   two int arrays and the value alongside — so a push writes three cells
   instead of allocating a record and its [Some]. [seq] numbers pushes, so
   (key, seq) order is insertion order among equal keys.

   [vals] starts empty and is created at the first push, filled with that
   value (a polymorphic array needs some element). A vacated cell is
   overwritten with a live entry's value rather than cleared, so nothing is
   allocated to clear it; it keeps at most that value (or, once the heap
   has emptied, the last one popped) reachable. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { keys = Array.make 16 0; seqs = Array.make 16 0; vals = [||]; size = 0; next_seq = 0 }

let less t i j =
  let ki = t.keys.(i) and kj = t.keys.(j) in
  ki < kj || (ki = kj && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let k = t.keys.(i) in
  t.keys.(i) <- t.keys.(j);
  t.keys.(j) <- k;
  let q = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- q;
  let v = t.vals.(i) in
  t.vals.(i) <- t.vals.(j);
  t.vals.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less t l !smallest then smallest := l;
  if r < t.size && less t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t v =
  let cap = Array.length t.keys in
  if Array.length t.vals = 0 then t.vals <- Array.make cap v
  else begin
    let keys = Array.make (2 * cap) 0 and seqs = Array.make (2 * cap) 0 in
    Array.blit t.keys 0 keys 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    let vals = Array.make (2 * cap) v in
    Array.blit t.vals 0 vals 0 t.size;
    t.keys <- keys;
    t.seqs <- seqs;
    t.vals <- vals
  end

let push t ~key v =
  if t.size = Array.length t.vals then grow t v;
  let i = t.size in
  t.keys.(i) <- key;
  t.seqs.(i) <- t.next_seq;
  t.vals.(i) <- v;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i

let peek_min t = if t.size = 0 then None else Some (t.keys.(0), t.vals.(0))

(* Non-allocating accessors for the kernel's timer hot loop: callers check
   [is_empty] first (the heap must be non-empty). *)
let min_key t = t.keys.(0)
let min_elt t = t.vals.(0)

let drop_min t =
  let last = t.size - 1 in
  t.size <- last;
  t.keys.(0) <- t.keys.(last);
  t.seqs.(0) <- t.seqs.(last);
  t.vals.(0) <- t.vals.(last);
  if last > 0 then sift_down t 0

let pop_min t =
  if t.size = 0 then None
  else begin
    let top = (t.keys.(0), t.vals.(0)) in
    drop_min t;
    Some top
  end

let size t = t.size
let is_empty t = t.size = 0

let iter t f =
  for i = 0 to t.size - 1 do
    f ~key:t.keys.(i) t.vals.(i)
  done
