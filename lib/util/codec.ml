exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

module Writer = struct
  type t = Buffer.t

  let create ~magic =
    let b = Buffer.create 1024 in
    Buffer.add_string b magic;
    Buffer.add_char b '\xff';
    b

  (* Zig-zag + LEB128: small magnitudes stay small. *)
  let int b v =
    let u = (v lsl 1) lxor (v asr 62) in
    let u = ref (u land max_int) in
    let continue = ref true in
    while !continue do
      let byte = !u land 0x7f in
      u := !u lsr 7;
      if !u = 0 then begin
        Buffer.add_char b (Char.chr byte);
        continue := false
      end
      else Buffer.add_char b (Char.chr (byte lor 0x80))
    done

  let int_array b arr =
    int b (Array.length arr);
    Array.iter (int b) arr

  let string b s =
    int b (String.length s);
    Buffer.add_string b s

  let contents = Buffer.contents
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  let create ~magic data =
    let m = String.length magic in
    if
      String.length data < m + 1
      || String.sub data 0 m <> magic
      || data.[m] <> '\xff'
    then corrupt "bad magic (expected %s)" magic;
    { data; pos = m + 1 }

  let byte t =
    if t.pos >= String.length t.data then corrupt "truncated input at %d" t.pos;
    let c = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    c

  let int t =
    let u = ref 0 and shift = ref 0 and continue = ref true in
    while !continue do
      if !shift > 63 then corrupt "varint too long at %d" t.pos;
      let b = byte t in
      u := !u lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      if b land 0x80 = 0 then continue := false
    done;
    (!u lsr 1) lxor (- (!u land 1))

  let int_array t =
    let n = int t in
    if n < 0 || n > String.length t.data - t.pos then
      corrupt "implausible array length %d at %d" n t.pos;
    Array.init n (fun _ -> int t)

  let string t =
    let n = int t in
    if n < 0 || n > String.length t.data - t.pos then
      corrupt "implausible string length %d at %d" n t.pos;
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s

  let at_end t = t.pos >= String.length t.data

  let expect_end t =
    if t.pos <> String.length t.data then
      corrupt "%d trailing bytes" (String.length t.data - t.pos)
end
