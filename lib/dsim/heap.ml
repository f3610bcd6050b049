(* Binary min-heap over (time, seq) keys.  Heap position [i] holds a
   time [times.(i)] and a slot [slots.(i)] into the entry table
   ([entries], with each entry's seq in [seq_of]).  Sifts move only
   these two flat arrays, so no sift level stores a pointer or pays the
   write barrier; an entry is written into the table once, at push.
   The comparator is [@inline] so the moving time stays an unboxed
   local: out of line, it would box the float at every level.

   A popped entry's slot goes on a free-slot stack kept in [slots]
   itself, at positions [size .. n_slots - 1] (the ones the heap just
   vacated), and the next push reuses it.  The arrays grow only when
   all [n_slots] slots are occupied.  A freed slot keeps its last entry
   until reused: at most [capacity] stale references linger, and heaps
   die with their simulation.

   The handle [push] returns IS the entry, so [cancel] is an O(1) field
   write.  Cancellation stays lazy: a dead entry keeps its position
   until it surfaces at the root, where the one shared drain
   ([drop_dead]) discards it.  [live] counts only non-cancelled entries
   so [length] stays exact. *)

type 'a entry = { value : 'a; mutable alive : bool }

type 'a handle = 'a entry

type 'a t = {
  mutable times : float array; (* heap position -> time *)
  mutable slots : int array; (* heap position -> slot, then free slots *)
  mutable seq_of : int array; (* slot -> insertion counter *)
  mutable entries : 'a entry array; (* slot -> entry *)
  mutable size : int; (* used heap positions, including dead entries *)
  mutable n_slots : int; (* slots handed out: [size] used + free *)
  mutable live : int; (* non-cancelled entries *)
  mutable next_seq : int;
  mutable high_water : int; (* max [live] ever observed *)
  mutable n_cancelled : int; (* entries cancelled while still live *)
}

let create () =
  { times = [||]; slots = [||]; seq_of = [||]; entries = [||]; size = 0;
    n_slots = 0; live = 0; next_seq = 0; high_water = 0; n_cancelled = 0 }

let length t = t.live
let is_empty t = t.live = 0
let high_water t = t.high_water
let pushes t = t.next_seq
let cancelled t = t.n_cancelled

(* Does key [(time, seq)] sort before the key at heap position [i]? *)
let[@inline] before t time seq i =
  let ti = t.times.(i) in
  time < ti || (time = ti && seq < t.seq_of.(t.slots.(i)))

(* Hole-based sifts: carry the moving (time, slot) pair in registers and
   write it once at its final position, instead of swapping pairwise. *)
let sift_up t start time slot =
  let seq = t.seq_of.(slot) in
  let i = ref start in
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t time seq parent then begin
      t.times.(!i) <- t.times.(parent);
      t.slots.(!i) <- t.slots.(parent);
      i := parent
    end
    else stop := true
  done;
  t.times.(!i) <- time;
  t.slots.(!i) <- slot

(* Re-seat the element at heap position [from] (the old last one) from
   the root down. *)
let sift_down t from =
  let time = t.times.(from) and slot = t.slots.(from) in
  let seq = t.seq_of.(slot) in
  let n = t.size in
  let i = ref 0 in
  let stop = ref false in
  while not !stop do
    let l = (2 * !i) + 1 in
    if l >= n then stop := true
    else begin
      let r = l + 1 in
      let c =
        if r < n && before t t.times.(r) t.seq_of.(t.slots.(r)) l then r
        else l
      in
      if before t time seq c then stop := true
      else begin
        t.times.(!i) <- t.times.(c);
        t.slots.(!i) <- t.slots.(c);
        i := c
      end
    end
  done;
  t.times.(!i) <- time;
  t.slots.(!i) <- slot

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
  t.seq_of <- extend t.seq_of 0;
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
  t.seq_of.(slot) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  t.live <- t.live + 1;
  if t.live > t.high_water then t.high_water <- t.live;
  sift_up t (t.size - 1) time slot;
  e

let cancel t e =
  if e.alive then begin
    e.alive <- false;
    t.live <- t.live - 1;
    t.n_cancelled <- t.n_cancelled + 1
  end

let pop_root t =
  let slot = t.slots.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t last;
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
