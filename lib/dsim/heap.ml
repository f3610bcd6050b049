(* Binary min-heap over (time, seq) keys.  Heap position [i] holds the
   key [times.(i)], [seqs.(i)] and a slot [slots.(i)] into the entry
   table ([entries]).  Sifts move only these three flat arrays, so no
   sift level stores a pointer or pays the write barrier, and a
   comparison reads both key halves at the position itself; an entry is
   written into the table once, at push.  The comparator is [@inline]
   and its arguments are annotated, so the moving time stays an unboxed
   local and [<] is a float compare: out of line, it would box the float
   at every level.  The sifts index without bounds checks: every
   position they touch is below [size], and [size] never exceeds the
   arrays' length.

   A popped entry's slot goes on a free-slot stack kept in [slots]
   itself, at positions [size .. n_slots - 1] (the ones the heap just
   vacated), and the next push reuses it.  The arrays grow only when
   all [n_slots] slots are occupied.  A freed slot keeps its last entry
   until reused: at most [capacity] stale references linger, and heaps
   die with their simulation.

   The handle [push] returns IS the entry, so [cancel] is an O(1) field
   write.  A dead entry keeps its position until it surfaces at the
   root, where the one shared drain ([drop_dead]) discards it, or until
   dead entries both exceed [compact_min] and outnumber live ones: then
   [compact] drops them all in one pass and Floyd-heapifies the
   survivors in place.  Every key is unique, so the pop sequence is a
   function of the live keys alone and compaction cannot change it.
   [live] counts only non-cancelled entries so [length] stays exact. *)

type 'a entry = { value : 'a; mutable alive : bool }

type 'a handle = 'a entry

type 'a t = {
  mutable times : float array; (* heap position -> time *)
  mutable slots : int array; (* heap position -> slot, then free slots *)
  mutable seqs : int array; (* heap position -> insertion counter *)
  mutable entries : 'a entry array; (* slot -> entry *)
  mutable size : int; (* used heap positions, including dead entries *)
  mutable n_slots : int; (* slots handed out: [size] used + free *)
  mutable live : int; (* non-cancelled entries *)
  mutable next_seq : int;
  mutable high_water : int; (* max [live] ever observed *)
  mutable n_cancelled : int; (* entries cancelled while still live *)
}

let create () =
  { times = [||]; slots = [||]; seqs = [||]; entries = [||]; size = 0;
    n_slots = 0; live = 0; next_seq = 0; high_water = 0; n_cancelled = 0 }

let length t = t.live
let depth t = t.size
let is_empty t = t.live = 0
let high_water t = t.high_water
let pushes t = t.next_seq
let cancelled t = t.n_cancelled

(* Does key [(time, seq)] sort before the key at heap position [i]? *)
let[@inline] before (times : float array) (seqs : int array) (time : float)
    (seq : int) i =
  let ti = Array.unsafe_get times i in
  time < ti || (time = ti && seq < Array.unsafe_get seqs i)

(* Hole-based sifts: carry the moving (time, seq, slot) triple in
   registers and write it once at its final position, instead of
   swapping pairwise.  The arrays are read into locals once, so the
   loop does not reload the mutable fields. *)
let sift_up t start time seq slot =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let i = ref start in
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before times seqs time seq parent then begin
      Array.unsafe_set times !i (Array.unsafe_get times parent);
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else stop := true
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let sift_down t hole from =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let time = Array.unsafe_get times from
  and seq = Array.unsafe_get seqs from
  and slot = Array.unsafe_get slots from in
  let n = t.size in
  let i = ref hole in
  let stop = ref false in
  while not !stop do
    let l = (2 * !i) + 1 in
    if l >= n then stop := true
    else begin
      let r = l + 1 in
      let c =
        if r < n
           && before times seqs (Array.unsafe_get times r) (Array.unsafe_get seqs r) l
        then r
        else l
      in
      if before times seqs time seq c then stop := true
      else begin
        Array.unsafe_set times !i (Array.unsafe_get times c);
        Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
        Array.unsafe_set slots !i (Array.unsafe_get slots c);
        i := c
      end
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

(* Dead entries below which the lazy root drain alone is used. *)
let compact_min = 32

(* Partition the heap positions into live entries [0, w) and dead ones
   [w, size) by swapping slots, so the dead slots join the free-slot
   stack just below the slots already free; then heapify bottom-up. *)
let compact t =
  let w = ref 0 in
  for i = 0 to t.size - 1 do
    let s = t.slots.(i) in
    if t.entries.(s).alive then begin
      let w' = !w in
      t.times.(w') <- t.times.(i);
      t.seqs.(w') <- t.seqs.(i);
      t.slots.(i) <- t.slots.(w');
      t.slots.(w') <- s;
      w := w' + 1
    end
  done;
  t.size <- !w;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i i
  done

let grow t e =
  let cap = Array.length t.slots in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.times <- extend t.times 0.;
  t.slots <- extend t.slots 0;
  t.seqs <- extend t.seqs 0;
  (* The new entry fills the fresh slots: no sentinel value needed. *)
  t.entries <- extend t.entries e

let push t ~time value =
  if Float.is_nan time then invalid_arg "Heap.push: NaN time";
  let e = { value; alive = true } in
  let slot =
    if t.size < t.n_slots then t.slots.(t.size)
    else begin
      if t.size = Array.length t.slots then grow t e;
      t.n_slots <- t.n_slots + 1;
      t.size
    end
  in
  t.entries.(slot) <- e;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- t.size + 1;
  t.live <- t.live + 1;
  if t.live > t.high_water then t.high_water <- t.live;
  sift_up t (t.size - 1) time seq slot;
  e

let cancel t e =
  if e.alive then begin
    e.alive <- false;
    t.live <- t.live - 1;
    t.n_cancelled <- t.n_cancelled + 1;
    let dead = t.size - t.live in
    if dead > compact_min && dead > t.live then compact t
  end

let pop_root t =
  let slot = t.slots.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t 0 last;
  t.slots.(last) <- slot;
  t.entries.(slot)

(* The one dead-entry drain (Sim.run used to run one in [peek_time] and a
   second in [pop]; both now share this). *)
let rec drop_dead t =
  if t.size > 0 && not t.entries.(t.slots.(0)).alive then begin
    ignore (pop_root t);
    drop_dead t
  end

let pop t =
  drop_dead t;
  if t.size = 0 then None
  else begin
    let time = t.times.(0) in
    let e = pop_root t in
    e.alive <- false;
    t.live <- t.live - 1;
    Some (time, e.value)
  end

let peek_time t =
  drop_dead t;
  if t.size = 0 then None else Some t.times.(0)

type 'a next = Empty | Later of float | Due of float * 'a

let pop_if_before ?horizon t =
  drop_dead t;
  if t.size = 0 then Empty
  else begin
    let time = t.times.(0) in
    match horizon with
    | Some h when time > h -> Later time
    | _ ->
        let e = pop_root t in
        e.alive <- false;
        t.live <- t.live - 1;
        Due (time, e.value)
  end
