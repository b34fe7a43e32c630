(* Unit and property tests for the XML substrate: parser, printer, link
   resolution and the collection graph G_X. *)

module X = Fx_xml.Xml_types
module P = Fx_xml.Xml_parser
module Pr = Fx_xml.Xml_print
module L = Fx_xml.Link_resolver
module C = Fx_xml.Collection
module Digraph = Fx_graph.Digraph
module H = Helpers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let parse_ok ?name s =
  match P.parse ?name s with
  | Ok d -> d
  | Error e -> Alcotest.failf "unexpected parse error: %s" (P.error_to_string e)

let parse_err s =
  match P.parse s with
  | Ok _ -> Alcotest.failf "expected parse failure for %S" s
  | Error e -> e

(* --- parser: accepted inputs ------------------------------------------ *)

let test_parse_minimal () =
  let d = parse_ok "<a/>" in
  check_str "tag" "a" d.root.tag;
  check "no children" true (d.root.children = [])

let test_parse_nested () =
  let d = parse_ok "<a><b><c/></b><d>text</d></a>" in
  check_int "children" 2 (List.length (X.children_elements d.root));
  check_int "total elements" 4 (X.count_elements d.root)

let test_parse_attributes () =
  let d = parse_ok {|<a x="1" y='two &amp; three'/>|} in
  check "x" true (X.attr d.root "x" = Some "1");
  check "entity in attr" true (X.attr d.root "y" = Some "two & three")

let test_parse_entities () =
  let d = parse_ok "<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;s&apos; &#65;&#x42;</a>" in
  check_str "decoded" {|<tag> & "q" 's' AB|} (X.direct_text d.root)

let test_parse_numeric_utf8 () =
  let d = parse_ok "<a>&#233;&#x20AC;</a>" in
  check_str "utf8" "\xc3\xa9\xe2\x82\xac" (X.direct_text d.root)

let test_parse_cdata () =
  let d = parse_ok "<a><![CDATA[<not> & parsed]]></a>" in
  check_str "cdata" "<not> & parsed" (X.direct_text d.root)

let test_parse_comments_pis () =
  let d = parse_ok "<?xml version=\"1.0\"?><!-- head --><a><!-- c --><?php echo ?><b/></a><!-- tail -->" in
  check_int "elements" 2 (X.count_elements d.root);
  let kinds = List.map (function X.Comment _ -> "c" | X.Pi _ -> "p" | X.Element _ -> "e" | _ -> "?") d.root.children in
  Alcotest.(check (list string)) "child kinds" [ "c"; "p"; "e" ] kinds

let test_parse_doctype () =
  let d = parse_ok "<!DOCTYPE dblp SYSTEM \"dblp.dtd\" [ <!ENTITY x \"y\"> ]><dblp/>" in
  check_str "root" "dblp" d.root.tag

let test_parse_whitespace_text_dropped () =
  let d = parse_ok "<a>\n  <b/>\n</a>" in
  check_int "only element child" 1 (List.length d.root.children)

let test_parse_deep_nesting () =
  (* 50k-deep nesting must not blow the stack (iterative content loop). *)
  let depth = 50_000 in
  let buf = Buffer.create (8 * depth) in
  for _ = 1 to depth do Buffer.add_string buf "<d>" done;
  Buffer.add_string buf "x";
  for _ = 1 to depth do Buffer.add_string buf "</d>" done;
  let d = parse_ok (Buffer.contents buf) in
  check_str "tag" "d" d.root.tag

(* --- parser: rejected inputs ------------------------------------------- *)

let test_parse_errors () =
  let cases =
    [
      "";
      "   ";
      "<a>";
      "<a></b>";
      "<a><b></a></b>";
      "<a/><b/>";
      "<a x=1/>";
      "<a x=\"1\" x=\"2\"/>";
      "<a>&unknown;</a>";
      "<a>&#xZZ;</a>";
      "<a>text ]]> more</a>";
      "<a><![CDATA[unterminated</a>";
      "<a><!-- unterminated</a>";
      "< a/>";
      "<a b=\"<\"/>";
      "<1tag/>";
      "<a/>trailing";
    ]
  in
  List.iter (fun s -> ignore (parse_err s)) cases

let test_parse_error_position () =
  let e = parse_err "<a>\n<b></c>\n</a>" in
  check_int "line" 2 e.line

(* --- printer ------------------------------------------------------------ *)

let test_print_escapes () =
  let d = X.document ~name:"d" (X.elt "a" ~attrs:[ ("k", "a\"b<c") ] [ X.text "x<y&z" ]) in
  let s = Pr.to_string d in
  check "attr escaped" true
    (String.length s > 0 && not (String.contains (Pr.escape_attr "a\"b") '"'));
  let d2 = parse_ok ~name:"d" s in
  check "roundtrip" true (X.equal_document d d2)

let test_pretty_parses_back () =
  let d = parse_ok "<a x=\"1\"><b>t</b><c><d/></c></a>" in
  let d2 = parse_ok (Pr.pretty d) in
  (* pretty adds whitespace between elements, which the parser drops. *)
  check_str "root" d.root.tag d2.root.tag;
  check_int "elements" (X.count_elements d.root) (X.count_elements d2.root)

(* Generator for random documents (elements, attrs, text). *)
let doc_gen =
  let open QCheck.Gen in
  let tag = oneofl [ "a"; "b"; "item"; "x-y"; "ns:t" ] in
  let attr_name = oneofl [ "k"; "id"; "href"; "v_1" ] in
  let text_char = oneofl [ 'a'; 'z'; ' '; '&'; '<'; '>'; '"'; '\'' ] in
  let text = map (fun cs -> String.concat "" (List.map (String.make 1) cs)) (list_size (int_range 1 8) text_char) in
  let rec element depth =
    tag >>= fun t ->
    list_size (int_range 0 2) (pair attr_name text) >>= fun attrs ->
    let attrs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) attrs in
    (if depth = 0 then return []
     else
       list_size (int_range 0 3)
         (frequency
            [ (2, map (fun e -> X.Element e) (element (depth - 1)));
              (1, map (fun s -> X.Text s) text) ]))
    >>= fun children ->
    (* Adjacent text nodes merge on reparse; keep only separated texts. *)
    let rec drop_adjacent_text = function
      | X.Text a :: X.Text _ :: rest -> drop_adjacent_text (X.Text a :: rest)
      | x :: rest -> x :: drop_adjacent_text rest
      | [] -> []
    in
    let children =
      List.filter (function X.Text s -> String.trim s <> "" | _ -> true)
        (drop_adjacent_text children)
    in
    return (X.elt t ~attrs children)
  in
  element 3 >>= fun root -> return (X.document ~name:"gen" root)

let doc_arb = QCheck.make ~print:(fun d -> Pr.to_string d) doc_gen

(* The parser trims pure-whitespace text nodes; normalise before
   comparing. *)
let rec normalise_el (e : X.element) =
  {
    e with
    children =
      List.filter_map
        (function
          | X.Element c -> Some (X.Element (normalise_el c))
          | X.Text s -> if String.trim s = "" then None else Some (X.Text s)
          | other -> Some other)
        e.children;
  }

let prop_print_parse_roundtrip =
  H.qtest ~count:200 "parse (print d) = d" doc_arb (fun d ->
      match P.parse ~name:"gen" (Pr.to_string d) with
      | Error _ -> false
      | Ok d2 -> X.equal_element (normalise_el d.root) (normalise_el d2.root))

(* --- sax ------------------------------------------------------------------- *)

module Sax = Fx_xml.Xml_sax

let test_sax_event_sequence () =
  let events = ref [] in
  (match
     Sax.parse {|<a x="1"><b>hi</b><!--c--><?p q?><![CDATA[d]]></a>|}
       ~on_event:(fun e -> events := e :: !events)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sax error: %s" (Sax.error_to_string e));
  let expected =
    [
      Sax.Start_element { tag = "a"; attrs = [ ("x", "1") ] };
      Sax.Start_element { tag = "b"; attrs = [] };
      Sax.Text "hi";
      Sax.End_element "b";
      Sax.Comment "c";
      Sax.Pi { target = "p"; body = "q" };
      Sax.Cdata "d";
      Sax.End_element "a";
    ]
  in
  check "event sequence" true (List.rev !events = expected)

let test_sax_helpers () =
  check "count" true (Sax.count_elements "<a><b/><b/><c/></a>" = Ok 4);
  (match Sax.tag_histogram "<a><b/><b/><c/></a>" with
  | Ok hist -> Alcotest.(check (list (pair string int))) "histogram"
                 [ ("b", 2); ("a", 1); ("c", 1) ] hist
  | Error _ -> Alcotest.fail "histogram failed");
  check "error propagates" true (Result.is_error (Sax.count_elements "<a><b></a>"))

let prop_sax_agrees_with_tree =
  H.qtest ~count:150 "SAX and tree parser agree" doc_arb (fun d ->
      let s = Pr.to_string d in
      match (P.parse s, Sax.count_elements s) with
      | Ok doc, Ok n -> X.count_elements doc.root = n
      | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false)

let prop_sax_balanced =
  H.qtest ~count:150 "SAX events are balanced" doc_arb (fun d ->
      let depth = ref 0 and ok = ref true in
      match
        Sax.parse (Pr.to_string d) ~on_event:(function
          | Sax.Start_element _ -> incr depth
          | Sax.End_element _ ->
              decr depth;
              if !depth < 0 then ok := false
          | _ -> if !depth = 0 then ok := false)
      with
      | Ok () -> !ok && !depth = 0
      | Error _ -> false)

(* --- xml_types helpers ---------------------------------------------------- *)

let test_iter_fold_find () =
  let d = parse_ok "<a><b><c/></b><b/></a>" in
  let tags = ref [] in
  X.iter_elements d.root (fun e -> tags := e.tag :: !tags);
  Alcotest.(check (list string)) "preorder" [ "a"; "b"; "c"; "b" ] (List.rev !tags);
  check_int "fold count" 4 (X.fold_elements d.root (fun n _ -> n + 1) 0);
  check "find" true (X.find_first d.root (fun e -> e.tag = "c") <> None);
  check "find none" true (X.find_first d.root (fun e -> e.tag = "zz") = None)

(* --- link resolver --------------------------------------------------------- *)

let test_parse_href () =
  check "doc only" true (L.parse_href "doc1" = { L.doc = Some "doc1"; anchor = None });
  check "doc+anchor" true (L.parse_href "doc1#e5" = { L.doc = Some "doc1"; anchor = Some "e5" });
  check "anchor only" true (L.parse_href "#e5" = { L.doc = None; anchor = Some "e5" });
  check "empty" true (L.parse_href "" = { L.doc = None; anchor = None })

let test_scan_links () =
  let d =
    parse_ok ~name:"d"
      {|<a id="root"><b id="x"/><c idref="x"/><e idrefs="x root"/><f href="other#y"/><g xlink:href="other"/></a>|}
  in
  let raw = L.scan d in
  check_int "anchors" 2 (List.length raw.anchors);
  check_int "idrefs" 3 (List.length raw.idrefs);
  check_int "hrefs" 2 (List.length raw.hrefs);
  (* anchors carry preorder indexes: root=0, b=1 *)
  check "anchor idx" true (List.assoc "root" raw.anchors = 0 && List.assoc "x" raw.anchors = 1)

let test_scan_duplicate_anchor () =
  let d = parse_ok ~name:"d" {|<a><b id="x"/><c id="x"/></a>|} in
  let raw = L.scan d in
  check_int "first wins" 1 (List.length raw.anchors);
  check "idx of first" true (List.assoc "x" raw.anchors = 1)

(* --- collection -------------------------------------------------------------- *)

let two_doc_collection () =
  let d1 =
    parse_ok ~name:"d1" {|<a id="r1"><b id="x"/><c idref="x"/><d href="d2#target"/></a>|}
  in
  let d2 = parse_ok ~name:"d2" {|<p><q id="target"/><r href="d1"/></p>|} in
  C.build [ d1; d2 ]

let test_collection_shape () =
  let c = two_doc_collection () in
  check_int "docs" 2 (C.n_docs c);
  check_int "nodes" 7 (C.n_nodes c);
  check_int "intra" 1 (C.n_intra_links c);
  check_int "inter" 2 (C.n_inter_links c);
  check "no dangling" true (C.dangling_refs c = []);
  (* tree graph has n - n_docs edges; full graph adds the 3 links *)
  check_int "tree edges" 5 (Digraph.n_edges (C.tree_graph c));
  check_int "graph edges" 8 (Digraph.n_edges (C.graph c))

let test_collection_links_resolved () =
  let c = two_doc_collection () in
  let d_node = Option.get (C.node_of_anchor c ~doc:"d2" ~anchor:"target") in
  check_str "target tag" "q" (C.tag_name c (C.tag c).(d_node));
  (* d in d1 links to q in d2 *)
  let link_ok =
    List.exists
      (fun (l : C.link) -> l.dst = d_node && l.inter && C.doc_of_node c l.src = 0)
      (C.links c)
  in
  check "href resolved" true link_ok;
  (* r in d2 links to root of d1 *)
  let r1 = C.root_of_doc c 0 in
  check "root link" true
    (List.exists (fun (l : C.link) -> l.dst = r1 && l.inter) (C.links c))

let test_collection_dangling () =
  let d1 = parse_ok ~name:"d1" {|<a><b idref="nope"/><c href="ghost"/><d href="d1#gone"/></a>|} in
  let c = C.build [ d1 ] in
  check_int "three dangling" 3 (List.length (C.dangling_refs c));
  check_int "no links" 0 (C.n_intra_links c + C.n_inter_links c)

let test_collection_duplicate_names () =
  let d = parse_ok ~name:"same" "<a/>" in
  Alcotest.check_raises "dup names"
    (Invalid_argument "Collection.build: duplicate document name \"same\"") (fun () ->
      ignore (C.build [ d; d ]))

let test_collection_tags () =
  let c = two_doc_collection () in
  check "tag id exists" true (C.tag_id c "q" <> None);
  check "tag id missing" true (C.tag_id c "zzz" = None);
  check_int "find_by_tag" 1 (List.length (C.find_by_tag c "q"))

let test_collection_preorder_numbering () =
  let d1 = parse_ok ~name:"d1" "<a><b><c/></b><d/></a>" in
  let c = C.build [ d1 ] in
  (* preorder: a=0 b=1 c=2 d=3 *)
  let names = List.init 4 (fun v -> C.tag_name c (C.tag c).(v)) in
  Alcotest.(check (list string)) "preorder" [ "a"; "b"; "c"; "d" ] names;
  check_int "root" 0 (C.root_of_doc c 0)

let test_collection_empty () =
  let c = C.build [] in
  check_int "no docs" 0 (C.n_docs c);
  check_int "no nodes" 0 (C.n_nodes c)

let test_collection_self_link () =
  let d = parse_ok ~name:"d" {|<a id="me" idref="me"/>|} in
  let c = C.build [ d ] in
  check_int "self link kept" 1 (C.n_intra_links c);
  check "self edge" true (Digraph.mem_edge (C.graph c) 0 0)

let prop_collection_tree_edges =
  H.qtest ~count:100 "collection tree edges = elements - docs" doc_arb (fun d ->
      let c = C.build [ d ] in
      Digraph.n_edges (C.tree_graph c) = C.n_nodes c - 1
      && C.n_nodes c = X.count_elements d.root)

(* The per-tag node index agrees with a scan of the tag array for every
   tag name, on each generator's collections and on the collections
   Flix.extend and Flix.remove rebuild from them. *)
let find_by_tag_is_scan c =
  let tags = C.tag c in
  let scan id = List.filter (fun v -> tags.(v) = id) (List.init (C.n_nodes c) Fun.id) in
  List.for_all
    (fun id -> C.find_by_tag c (C.tag_name c id) = scan id)
    (List.init (C.n_tags c) Fun.id)
  && C.find_by_tag c "no-such-tag" = []

let prop_find_by_tag name generate =
  H.qtest ~count:4 ("find_by_tag = tag scan, " ^ name) QCheck.(int_range 0 10_000)
    (fun seed ->
      let docs = generate seed in
      let n = List.length docs in
      let base = List.filteri (fun i _ -> i < n - (n / 4)) docs in
      let batch = List.filteri (fun i _ -> i >= n - (n / 4)) docs in
      let f = Fx_flix.Flix.build (C.build base) in
      let grown = Fx_flix.Flix.extend f batch in
      let evicted =
        Fx_flix.Flix.remove grown
          (List.filteri (fun i _ -> i mod 3 = 0) (List.map (fun (d : X.document) -> d.name) docs))
      in
      List.for_all find_by_tag_is_scan
        [ C.build docs; Fx_flix.Flix.collection grown; Fx_flix.Flix.collection evicted ])

let prop_find_by_tag_dblp =
  prop_find_by_tag "dblp" (fun seed ->
      Fx_workload.Dblp_gen.(generate { default with seed }))

let prop_find_by_tag_inex =
  prop_find_by_tag "inex" (fun seed ->
      Fx_workload.Inex_gen.(generate { default with seed }))

let prop_find_by_tag_web =
  prop_find_by_tag "web" (fun seed ->
      Fx_workload.Web_gen.(generate { default with seed }))

(* Fuzzing: arbitrary byte strings must never crash the parser — they
   either parse or return a positioned error. *)
let prop_parser_total =
  H.qtest ~count:500 "parser is total on arbitrary input"
    QCheck.(string_gen Gen.printable)
    (fun s ->
      match P.parse s with
      | Ok _ | Error _ -> true)

let prop_parser_total_xmlish =
  H.qtest ~count:500 "parser is total on XML-ish fragments"
    (QCheck.make
       QCheck.Gen.(
         let frag = oneofl [ "<a>"; "</a>"; "<a/>"; "x"; "&amp;"; "&#6;"; "<!--"; "-->";
                             "<![CDATA["; "]]>"; "\""; "'"; "="; "<?p ?>"; "id=\"1\"" ] in
         map (String.concat "") (list_size (int_range 0 12) frag)))
    (fun s -> match P.parse s with Ok _ | Error _ -> true)

let () =
  Alcotest.run "fx_xml"
    [
      ( "parser",
        [
          Alcotest.test_case "minimal" `Quick test_parse_minimal;
          Alcotest.test_case "nested" `Quick test_parse_nested;
          Alcotest.test_case "attributes" `Quick test_parse_attributes;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "numeric utf8" `Quick test_parse_numeric_utf8;
          Alcotest.test_case "cdata" `Quick test_parse_cdata;
          Alcotest.test_case "comments and PIs" `Quick test_parse_comments_pis;
          Alcotest.test_case "doctype" `Quick test_parse_doctype;
          Alcotest.test_case "whitespace dropped" `Quick test_parse_whitespace_text_dropped;
          Alcotest.test_case "deep nesting" `Quick test_parse_deep_nesting;
          Alcotest.test_case "rejects malformed" `Quick test_parse_errors;
          Alcotest.test_case "error position" `Quick test_parse_error_position;
          prop_parser_total;
          prop_parser_total_xmlish;
        ] );
      ( "printer",
        [
          Alcotest.test_case "escaping" `Quick test_print_escapes;
          Alcotest.test_case "pretty reparses" `Quick test_pretty_parses_back;
          prop_print_parse_roundtrip;
        ] );
      ( "sax",
        [
          Alcotest.test_case "event sequence" `Quick test_sax_event_sequence;
          Alcotest.test_case "helpers" `Quick test_sax_helpers;
          prop_sax_agrees_with_tree;
          prop_sax_balanced;
        ] );
      ("types", [ Alcotest.test_case "iter/fold/find" `Quick test_iter_fold_find ]);
      ( "links",
        [
          Alcotest.test_case "parse_href" `Quick test_parse_href;
          Alcotest.test_case "scan" `Quick test_scan_links;
          Alcotest.test_case "duplicate anchors" `Quick test_scan_duplicate_anchor;
        ] );
      ( "collection",
        [
          Alcotest.test_case "shape" `Quick test_collection_shape;
          Alcotest.test_case "links resolved" `Quick test_collection_links_resolved;
          Alcotest.test_case "dangling refs" `Quick test_collection_dangling;
          Alcotest.test_case "duplicate names" `Quick test_collection_duplicate_names;
          Alcotest.test_case "tags" `Quick test_collection_tags;
          Alcotest.test_case "preorder numbering" `Quick test_collection_preorder_numbering;
          Alcotest.test_case "empty" `Quick test_collection_empty;
          Alcotest.test_case "self link" `Quick test_collection_self_link;
          prop_collection_tree_edges;
          prop_find_by_tag_dblp;
          prop_find_by_tag_inex;
          prop_find_by_tag_web;
        ] );
    ]
