(* Whole passes over a bug list, each pass in a seeded order, walked one
   bug at a time so [Main.drive] can interleave other work between bugs. *)

type t = {
  prng : Snorlax_util.Prng.t;
  bugs : Corpus.Bug.t array;
  mutable order : Corpus.Bug.t array;
  mutable next : int;
}

let create ~seed bugs =
  { prng = Snorlax_util.Prng.create ~seed; bugs = Array.of_list bugs; order = [||]; next = 0 }

let next t =
  if t.next >= Array.length t.order then begin
    let order = Array.copy t.bugs in
    Snorlax_util.Prng.shuffle t.prng order;
    t.order <- order;
    t.next <- 0
  end;
  t.next <- t.next + 1;
  t.order.(t.next - 1)

(* True between passes (and before the first). *)
let at_end t = t.next >= Array.length t.order
