(* One generation-counted barrier drives all windows.  The coordinator
   bumps [generation] with the window horizon published in [until];
   workers run their partitions to the horizon and decrement [running].
   Mutex acquire/release orders every cross-domain access to the megas,
   mailboxes, and heaps: workers touch partition state only between the
   generation bump and their decrement, the coordinator only while all
   workers are parked.  A share that raises still decrements [running],
   after recording its exception in [fault] if that slot is empty, so
   the coordinator's wait always ends. *)

exception
  Partition_fault of {
    partitions : int list;
    window : int;
    exn : exn;
    backtrace : string;
  }

let () =
  Printexc.register_printer (function
    | Partition_fault { partitions; window; exn; _ } ->
        Some
          (Printf.sprintf "Pdes.Barrier.Partition_fault: partitions [%s], \
                           window %d: %s"
             (String.concat "; " (List.map string_of_int partitions))
             window (Printexc.to_string exn))
    | _ -> None)

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  workers : int;
  mutable generation : int;
  mutable until : float;
  mutable stop : bool;
  mutable running : int;
  mutable fault : exn option;
}

let create ~workers =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    workers;
    generation = 0;
    until = 0.;
    stop = false;
    running = 0;
    fault = None;
  }

(* Runs one share of window [gen] (generations count from 1), returning
   its fault instead of raising it. *)
let share ~partitions ~gen run until =
  match run until with
  | () -> None
  | exception exn ->
      let backtrace = Printexc.get_backtrace () in
      Some (Partition_fault { partitions; window = gen - 1; exn; backtrace })

(* Under the mutex: keep the first fault, count the share as done. *)
let finish b fault =
  if Option.is_none b.fault then b.fault <- fault;
  b.running <- b.running - 1;
  if b.running = 0 then Condition.broadcast b.cond

let worker b ~partitions run =
  let gen = ref 0 in
  let live = ref true in
  while !live do
    Mutex.lock b.mutex;
    while b.generation = !gen && not b.stop do
      Condition.wait b.cond b.mutex
    done;
    let stop = b.stop in
    let until = b.until in
    gen := b.generation;
    Mutex.unlock b.mutex;
    if stop then live := false
    else begin
      let fault = share ~partitions ~gen:!gen run until in
      Mutex.lock b.mutex;
      finish b fault;
      Mutex.unlock b.mutex;
      live := Option.is_none fault
    end
  done

let window b ~partitions ~until run =
  Mutex.lock b.mutex;
  b.until <- until;
  b.generation <- b.generation + 1;
  b.running <- b.workers + 1;
  let gen = b.generation in
  Condition.broadcast b.cond;
  Mutex.unlock b.mutex;
  let fault = share ~partitions ~gen run until in
  Mutex.lock b.mutex;
  finish b fault;
  while b.running > 0 do
    Condition.wait b.cond b.mutex
  done;
  let fault = b.fault in
  Mutex.unlock b.mutex;
  Option.iter raise fault

let stop b =
  Mutex.lock b.mutex;
  b.stop <- true;
  Condition.broadcast b.cond;
  Mutex.unlock b.mutex
