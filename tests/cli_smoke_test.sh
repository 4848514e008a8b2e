#!/bin/sh
# Smoke tests for the xqmft CLI, registered under ctest (see CMakeLists.txt).
#
#   cli_smoke_test.sh <path-to-xqmft> <case>
#
# Each case drives one subcommand end to end against small inline documents
# and checks the observable output, not just the exit code.
set -u

XQMFT=$1
CASE=$2

TMPDIR_SMOKE=$(mktemp -d) || exit 1
trap 'rm -rf "$TMPDIR_SMOKE"' EXIT

QUERY='<out>{ for $x in $input/doc/item return <hit>{$x/text()}</hit> }</out>'
DOC='<doc><item>a</item><item>b</item></doc>'
WANT='<out><hit>a</hit><hit>b</hit></out>'

XML="$TMPDIR_SMOKE/doc.xml"
printf '%s' "$DOC" > "$XML"
SCHEMA="$TMPDIR_SMOKE/doc.sch"
printf 'doc -> item*\nitem -> text\n' > "$SCHEMA"

fail() {
  echo "FAIL($CASE): $1" >&2
  exit 1
}

expect_contains() {
  case "$1" in
    *"$2"*) ;;
    *) fail "expected output containing '$2', got: $1" ;;
  esac
}

case "$CASE" in
  run)
    OUT=$("$XQMFT" run "$QUERY" "$XML") || fail "exit $?"
    expect_contains "$OUT" "$WANT"
    # Source projection: a subtree no path reads is skipped in the
    # tokenizer and --stats says so; a copy of every element streams
    # unprojected, and --stats says why.
    PXML="$TMPDIR_SMOKE/proj.xml"
    printf '<doc><skip><x>1</x></skip><item>a</item></doc>' > "$PXML"
    STATS=$("$XQMFT" run --stats "$QUERY" "$PXML" 2>&1) || fail "exit $?"
    expect_contains "$STATS" "<out><hit>a</hit></out>"
    expect_contains "$STATS" \
      "projection: on (subtrees skipped: 1, bytes skipped: 15)"
    STATS=$("$XQMFT" run --stats '<o>{$input/*}</o>' "$PXML" 2>&1) \
      || fail "exit $?"
    expect_contains "$STATS" "projection: off (copies every element"
    STATS=$("$XQMFT" run --stats --schema "$SCHEMA" "$QUERY" "$XML" 2>&1) \
      || fail "exit $?"
    expect_contains "$STATS" "projection: on (subtrees skipped: 0, bytes \
skipped: 0), schema validation reads every event"
    # A validated run still projects: the engines skip <note>, while the
    # validator reads it, so a violation inside it fails the run.
    NSCHEMA="$TMPDIR_SMOKE/note.sch"
    printf 'doc -> (item|note)*\nnote -> text\n' > "$NSCHEMA"
    NXML="$TMPDIR_SMOKE/note.xml"
    printf '<doc><item>a</item><note>ok</note><item>b</item></doc>' > "$NXML"
    STATS=$("$XQMFT" run --stats --schema "$NSCHEMA" "$QUERY" "$NXML" 2>&1) \
      || fail "exit $?"
    expect_contains "$STATS" "$WANT"
    expect_contains "$STATS" "projection: on (subtrees skipped: 1, bytes \
skipped: 9), schema validation reads every event"
    printf '<doc><item>a</item><note><bad/></note><item>b</item></doc>' \
      > "$NXML"
    OUT=$("$XQMFT" run --schema "$NSCHEMA" "$QUERY" "$NXML" 2>&1)
    test $? -eq 1 || fail "expected exit 1 for a violation in a skipped subtree"
    expect_contains "$OUT" "schema violation"
    ;;
  run_stdin)
    OUT=$("$XQMFT" run "$QUERY" < "$XML") || fail "exit $?"
    expect_contains "$OUT" "$WANT"
    ;;
  run_no_opt)
    OUT=$("$XQMFT" run --no-opt "$QUERY" "$XML") || fail "exit $?"
    expect_contains "$OUT" "$WANT"
    ;;
  run_pretok)
    CACHE="$TMPDIR_SMOKE/doc.ptk"
    OUT=$("$XQMFT" run --pretok-cache "$CACHE" "$QUERY" "$XML") \
      || fail "exit $?"
    expect_contains "$OUT" "$WANT"
    test -s "$CACHE" || fail "pretok cache was not written"
    # Second run streams the cache (the XML is gone: only the cache serves).
    rm -f "$XML"
    OUT=$("$XQMFT" run --pretok-cache "$CACHE" "$QUERY" "$XML" 2>/dev/null) \
      || fail "exit $?"
    expect_contains "$OUT" "$WANT"
    ;;
  run_pretok_flags)
    # A pretok stream whose header flags byte is not 0x03 (the one
    # tokenization) is rejected: as a direct .ptk input the run exits 1, and
    # under --pretok-cache the cache is stale, so it is re-tokenized.
    CACHE="$TMPDIR_SMOKE/doc.ptk"
    "$XQMFT" run --pretok-cache "$CACHE" "$QUERY" "$XML" > /dev/null \
      || fail "exit $?"
    printf '\001' | dd of="$CACHE" bs=1 seek=7 conv=notrunc 2>/dev/null \
      || fail "cannot rewrite the flags byte"
    OUT=$("$XQMFT" run "$QUERY" "$CACHE" 2>&1)
    test $? -eq 1 || fail "expected exit 1 for flags 0x01, got: $OUT"
    expect_contains "$OUT" "unsupported tokenization flags 0x01"
    OUT=$("$XQMFT" run --pretok-cache "$CACHE" "$QUERY" "$XML") \
      || fail "exit $?"
    test "$OUT" = "$WANT" || fail "re-tokenized run printed: $OUT"
    OUT=$("$XQMFT" run "$QUERY" "$CACHE") || fail "exit $?"
    test "$OUT" = "$WANT" || fail "rewritten cache printed: $OUT"
    ;;
  run_multi)
    # Several inputs stream through parallel workers; outputs concatenate
    # in input order regardless of completion order.
    XML2="$TMPDIR_SMOKE/doc2.xml"
    printf '<doc><item>c</item></doc>' > "$XML2"
    OUT=$("$XQMFT" run --threads 2 "$QUERY" "$XML" "$XML2") || fail "exit $?"
    expect_contains "$OUT" "${WANT}<out><hit>c</hit></out>"
    # Without --threads, several inputs still run (serially).
    OUT=$("$XQMFT" run "$QUERY" "$XML" "$XML2") || fail "exit $?"
    expect_contains "$OUT" "${WANT}<out><hit>c</hit></out>"
    ;;
  run_threads_parity)
    # --threads 1 is the serial fast path: byte-identical to a plain run.
    SERIAL=$("$XQMFT" run "$QUERY" "$XML") || fail "exit $?"
    ONE=$("$XQMFT" run --threads 1 "$QUERY" "$XML" 2>/dev/null) \
      || fail "exit $?"
    test "$ONE" = "$SERIAL" || fail "--threads 1 output differs: $ONE"
    FOUR=$("$XQMFT" run --threads 4 "$QUERY" "$XML" 2>/dev/null) \
      || fail "exit $?"
    test "$FOUR" = "$SERIAL" || fail "--threads 4 output differs: $FOUR"
    ;;
  run_threads_stdin)
    # stdin cannot be sharded: a --threads run without file inputs must
    # fail loudly instead of silently reading the pipe serially.
    OUT=$("$XQMFT" run --threads 2 "$QUERY" < "$XML" 2>&1)
    test $? -eq 0 && fail "expected nonzero exit for --threads with stdin"
    expect_contains "$OUT" "stdin cannot be sharded"
    ;;
  run_threads_pretok)
    # A pretok input is one document like a text one: --threads spreads
    # inputs over workers and never splits one. On a two-tree forest the
    # output is the same bytes with and without --threads, through
    # --pretok-cache and as a direct .ptk argument, as for the text input.
    F2="$TMPDIR_SMOKE/f2.xml"
    printf '%s' '<a><x/></a><b><x/></b>' > "$F2"
    Q='<out>{$input/*/x}</out>'
    F2_WANT='<out><x></x><x></x></out>'
    CACHE="$TMPDIR_SMOKE/f2.ptk"
    # run_f2 <flags> <input>: the run must print exactly F2_WANT.
    run_f2() {
      OUT=$("$XQMFT" run $1 "$Q" "$2" 2>/dev/null) \
        || fail "exit $? for run $1 $2"
      test "$OUT" = "$F2_WANT" || fail "run $1 $2 printed: $OUT"
    }
    for THREADS in "" "--threads 2"; do
      run_f2 "$THREADS --pretok-cache $CACHE" "$F2"
      test -s "$CACHE" || fail "pretok cache was not written"
      run_f2 "$THREADS" "$CACHE"
      run_f2 "$THREADS" "$F2"
    done
    # One input under --threads says that it runs on one worker.
    ERR=$("$XQMFT" run --threads 2 "$Q" "$CACHE" 2>&1 >/dev/null)
    expect_contains "$ERR" "one input runs on one worker"
    # Serve-cache-alone: the XML gone, the cache still serves under
    # --threads.
    rm -f "$F2"
    OUT=$("$XQMFT" run --threads 2 --pretok-cache "$CACHE" "$Q" "$F2" \
          2>/dev/null) || fail "exit $?"
    test "$OUT" = "$F2_WANT" || fail "cache alone printed: $OUT"
    ;;
  run_queries)
    # Multi-query run: every -q query streams over ONE input in a single
    # pass; outputs print in query order, each on its own line.
    Q2='<out>{ for $x in $input/doc/item return <up>{$x/text()}</up> }</out>'
    OUT=$("$XQMFT" run -q "$QUERY" -q "$Q2" "$XML") || fail "exit $?"
    expect_contains "$OUT" "$WANT"
    expect_contains "$OUT" "<out><up>a</up><up>b</up></out>"
    # Query order, not completion order: WANT (query 1) precedes Q2's out.
    case "$OUT" in
      *"$WANT"*"<up>a</up>"*) ;;
      *) fail "outputs not in query order: $OUT" ;;
    esac
    # stdin works as the single input; --query-file adds one query per line.
    QFILE="$TMPDIR_SMOKE/queries.txt"
    printf '%s\n\n%s\n' "$QUERY" "$Q2" > "$QFILE"
    OUT=$("$XQMFT" run --query-file "$QFILE" < "$XML") || fail "exit $?"
    expect_contains "$OUT" "$WANT"
    expect_contains "$OUT" "<out><up>a</up><up>b</up></out>"
    ;;
  run_queries_threads)
    # Several queries over several documents spread over workers: the same
    # bytes as the serial run, each query's documents in input order.
    Q2='<out>{ for $x in $input/doc/item return <up>{$x/text()}</up> }</out>'
    XML2="$TMPDIR_SMOKE/doc2.xml"
    printf '<doc><item>c</item></doc>' > "$XML2"
    SERIAL=$("$XQMFT" run -q "$QUERY" -q "$Q2" "$XML" "$XML2") \
      || fail "exit $?"
    expect_contains "$SERIAL" "${WANT}<out><hit>c</hit></out>"
    expect_contains "$SERIAL" "<out><up>a</up><up>b</up></out><out><up>c</up></out>"
    THREADED=$("$XQMFT" run -q "$QUERY" -q "$Q2" --threads 2 "$XML" "$XML2") \
      || fail "exit $?"
    test "$THREADED" = "$SERIAL" || fail "--threads output differs: $THREADED"
    # Per-run state and single-document modes still do not combine.
    for FLAG in "--schema $SCHEMA" "--dag" "--pretok-cache $TMPDIR_SMOKE/q.ptk"; do
      OUT=$("$XQMFT" run -q "$QUERY" -q "$Q2" $FLAG "$XML" 2>&1)
      test $? -eq 0 && fail "expected nonzero exit for -q with $FLAG"
      expect_contains "$OUT" "cannot combine"
    done
    ;;
  serve_batch)
    # The "queries" batch form: one shared parse, per-query framed responses
    # echoed strictly in REQUEST order (ids 9 then 1 — descending, so any
    # completion-order or id-order reordering would flip them), duplicate
    # queries deduplicated onto one engine, then a batch summary line.
    REQ="{\"id\":\"b\",\"queries\":[{\"query\":\"<out>{ for \$x in \$input/doc/item return <hit>{\$x/text()}</hit> }</out>\",\"id\":9},{\"query\":\"<out>{ for \$x in \$input/doc/item return <up>{\$x/text()}</up> }</out>\",\"id\":1},{\"query\":\"<out>{ for \$x in \$input/doc/item return <hit>{\$x/text()}</hit> }</out>\",\"id\":4}],\"inputs\":[\"$XML\"]}"
    OUT=$(printf '%s\n' "$REQ" | "$XQMFT" serve) || fail "exit $?"
    expect_contains "$OUT" '"id":9,"ok":true'
    expect_contains "$OUT" '"id":1,"ok":true'
    expect_contains "$OUT" '"id":4,"ok":true'
    expect_contains "$OUT" '"deduped":true'
    expect_contains "$OUT" "$WANT"
    expect_contains "$OUT" '"batch":true'
    expect_contains "$OUT" '"documents":1'
    expect_contains "$OUT" '"unique_plans":2'
    expect_contains "$OUT" '"deduped_requests":1'
    case "$OUT" in
      *'"id":9'*'"id":1'*'"id":4'*) ;;
      *) fail "batch responses not in request order: $OUT" ;;
    esac
    # A failing query is isolated: its siblings still answer.
    REQ2="{\"queries\":[{\"query\":\"<<<\",\"id\":7},{\"query\":\"<out>{ for \$x in \$input/doc/item return <hit>{\$x/text()}</hit> }</out>\",\"id\":8}],\"inputs\":[\"$XML\"]}"
    OUT=$(printf '%s\n' "$REQ2" | "$XQMFT" serve) || fail "exit $?"
    expect_contains "$OUT" '"id":7,"ok":false'
    expect_contains "$OUT" '"id":8,"ok":true'
    expect_contains "$OUT" "$WANT"
    ;;
  run_engine_ops)
    # Forced lowered engine: byte-identical output, and --stats reports the
    # engine that actually served plus the arena cell accounting.
    OUT=$("$XQMFT" run --engine=ops "$QUERY" "$XML") || fail "exit $?"
    expect_contains "$OUT" "$WANT"
    STATS=$("$XQMFT" run --engine ops --stats "$QUERY" "$XML" 2>&1) \
      || fail "exit $?"
    expect_contains "$STATS" "engine: ops"
    expect_contains "$STATS" "cells refcounted: 0"
    # Pinning the table engine flips the report and still matches.
    TOUT=$("$XQMFT" run --engine=table "$QUERY" "$XML") || fail "exit $?"
    test "$TOUT" = "$OUT" || fail "table output differs: $TOUT"
    TSTATS=$("$XQMFT" run --engine=table --stats "$QUERY" "$XML" 2>&1) \
      || fail "exit $?"
    expect_contains "$TSTATS" "engine: table"
    expect_contains "$TSTATS" "cells arena: 0"
    # A bogus engine name is a usage error.
    "$XQMFT" run --engine=bogus "$QUERY" "$XML" 2>/dev/null \
      && fail "expected nonzero exit for --engine=bogus"
    ;;
  run_engine_fallback)
    # --engine=ops on a plan that does not lower: every corpus query now
    # lowers fully, so the fallback needs a hand-written
    # transducer with a nonlinear parameter (y1 y1 is outside the rope
    # fragment). A stderr note names the reason and the run serves from the
    # table engine.
    RULES='q(a(x1)x2) -> q2(x1, m(eps)) q(x2)
q(%t(x1)x2) -> q(x2)
q(eps) -> eps
q2(a(x1)x2, y1) -> y1 y1
q2(%t(x1)x2, y1) -> y1
q2(eps, y1) -> y1'
    AXML="$TMPDIR_SMOKE/fallback.xml"
    printf '<a><a>inner</a></a>' > "$AXML"
    OUT=$("$XQMFT" mft --engine=ops "$RULES" "$AXML" 2>"$TMPDIR_SMOKE/err") \
      || fail "exit $?"
    expect_contains "$OUT" "<m></m><m></m>"
    expect_contains "$(cat "$TMPDIR_SMOKE/err")" "not lowerable"
    expect_contains "$(cat "$TMPDIR_SMOKE/err")" "falling back to table engine"
    STATS=$("$XQMFT" mft --engine=ops --stats "$RULES" "$AXML" 2>&1) \
      || fail "exit $?"
    expect_contains "$STATS" "engine: table"
    expect_contains "$STATS" "lowered: no (parameter-carrying call"
    ;;
  run_engine_predicate)
    # A predicate query lowers fully: its selector cluster runs on choice
    # frames and its literal test on a text case. --stats reports the
    # classification, and the output matches the table engine's.
    PQUERY='<out>{ for $x in $input/doc/item[./text()="a"] return <hit>ok</hit> }</out>'
    OUT=$("$XQMFT" run --engine=ops "$PQUERY" "$XML") || fail "exit $?"
    expect_contains "$OUT" "<out><hit>ok</hit></out>"
    TOUT=$("$XQMFT" run --engine=table "$PQUERY" "$XML") || fail "exit $?"
    test "$TOUT" = "$OUT" || fail "table output differs: $TOUT"
    STATS=$("$XQMFT" run --engine=ops --stats "$PQUERY" "$XML" 2>&1) \
      || fail "exit $?"
    expect_contains "$STATS" "engine: ops"
    expect_contains "$STATS" "lowered: yes (full)"
    expect_contains "$STATS" "cells refcounted: 0"
    ;;
  run_dag)
    OUT=$("$XQMFT" run --dag "$QUERY" "$XML") || fail "exit $?"
    expect_contains "$OUT" "output nodes:"
    expect_contains "$OUT" "compression:"
    ;;
  serve)
    # A multi-request session: the first request compiles (cache miss), the
    # second request for the same query — different whitespace, several
    # documents, threads — hits the cached plan. Responses are framed as a
    # JSON stats header plus the serialized output.
    XML2="$TMPDIR_SMOKE/doc2.xml"
    printf '<doc><item>c</item></doc>' > "$XML2"
    OUT=$(printf '%s\n' \
      "{\"id\":1,\"query\":\"<out>{ for \$x in \$input/doc/item return <hit>{\$x/text()}</hit> }</out>\",\"inputs\":[\"$XML\"]}" \
      "{\"id\":2,\"query\":\"<out>{  for \$x in \$input/doc/item   return <hit>{\$x/text()}</hit> }</out>\",\"inputs\":[\"$XML\",\"$XML2\"],\"threads\":2}" \
      | "$XQMFT" serve) || fail "exit $?"
    expect_contains "$OUT" '"id":1,"ok":true'
    expect_contains "$OUT" '"cache":"miss"'
    expect_contains "$OUT" "$WANT"
    expect_contains "$OUT" '"id":2,"ok":true'
    expect_contains "$OUT" '"cache":"hit"'
    expect_contains "$OUT" '"lowered":"full"'
    expect_contains "$OUT" "${WANT}<out><hit>c</hit></out>"
    ;;
  serve_error)
    # A malformed request line and a failing request (missing file) must
    # produce error responses without killing the loop: the valid request
    # after them still serves.
    OUT=$(printf '%s\n' \
      'this is not json' \
      '{"id":5,"query":"<out>{$input/doc}</out>"}' \
      "{\"id\":6,\"query\":\"<out>{ for \$x in \$input/doc/item return <hit>{\$x/text()}</hit> }</out>\",\"inputs\":[\"$XML\"]}" \
      | "$XQMFT" serve) || fail "exit $?"
    expect_contains "$OUT" '"ok":false,"error":'
    expect_contains "$OUT" '"id":5,"ok":false'
    expect_contains "$OUT" "no documents"
    expect_contains "$OUT" '"id":6,"ok":true'
    expect_contains "$OUT" "$WANT"
    # An unknown flag (the removed --batch-window-ms) is rejected.
    ERR=$("$XQMFT" serve --batch-window-ms 2 < /dev/null 2>&1) \
      && fail "serve accepted --batch-window-ms"
    expect_contains "$ERR" "got '--batch-window-ms'"
    ;;
  serve_cache)
    # Cache statistics are observable in-band: per-response cumulative
    # hit/miss counters plus the stats command; --cache-capacity 1 makes
    # alternating queries thrash (evictions visible).
    Q1='{"query":"<out>{ $input/doc/item }</out>","xml":["<doc><item>a</item></doc>"]}'
    Q2='{"query":"<out>{ $input/doc }</out>","xml":["<doc><item>a</item></doc>"]}'
    OUT=$(printf '%s\n' "$Q1" "$Q2" "$Q1" '{"cmd":"stats"}' \
      | "$XQMFT" serve --cache-capacity 1) || fail "exit $?"
    expect_contains "$OUT" '"cache_entries":1'
    expect_contains "$OUT" '"compiles":3'
    expect_contains "$OUT" '"evictions":2'
    expect_contains "$OUT" '"hits":0'
    ;;
  compile)
    OUT=$("$XQMFT" compile "$QUERY" 2>"$TMPDIR_SMOKE/report") || fail "exit $?"
    expect_contains "$OUT" "q0("
    expect_contains "$(cat "$TMPDIR_SMOKE/report")" "after:"
    ;;
  compile_no_opt)
    OUT=$("$XQMFT" compile --no-opt "$QUERY" 2>/dev/null) || fail "exit $?"
    expect_contains "$OUT" "q0("
    ;;
  translate)
    OUT=$("$XQMFT" translate "$QUERY") || fail "exit $?"
    # The raw translation keeps the parameter-passing helper states that the
    # Section 4.1 passes remove.
    expect_contains "$OUT" "q0("
    expect_contains "$OUT" "y1"
    ;;
  validate)
    OUT=$("$XQMFT" validate "$SCHEMA" "$XML") || fail "exit $?"
    expect_contains "$OUT" "valid"
    ;;
  validate_invalid)
    printf '<doc><bogus/></doc>' > "$TMPDIR_SMOKE/bad.xml"
    OUT=$("$XQMFT" validate "$SCHEMA" "$TMPDIR_SMOKE/bad.xml" 2>&1)
    test $? -eq 0 && fail "expected nonzero exit for invalid document"
    expect_contains "$OUT" "schema violation"
    ;;
  serve_limits)
    # Stdin serving hardening: an overlong request line is rejected without
    # killing the session, inline documents are byte-capped, and
    # deadline_ms aborts a slow request mid-stream.
    LONG=$(head -c 400 /dev/zero | tr '\0' 'x')
    OUT=$( { printf '%s\n' "$LONG"; \
             printf '%s\n' "{\"id\":1,\"query\":\"<out>{ for \$x in \$input/doc/item return <hit>{\$x/text()}</hit> }</out>\",\"inputs\":[\"$XML\"]}"; } \
           | "$XQMFT" serve --max-line-bytes 256) || fail "exit $?"
    expect_contains "$OUT" "exceeds the 256-byte limit"
    expect_contains "$OUT" '"id":1,"ok":true'
    expect_contains "$OUT" "$WANT"
    OUT=$(printf '%s\n' '{"query":"<o/>","xml":["<doc><item>a</item></doc>"]}' \
          | "$XQMFT" serve --max-xml-bytes 8) || fail "exit $?"
    expect_contains "$OUT" '"status":"invalid_argument"'
    # A stalled source (fault injection) blows a 20ms budget; the request
    # aborts with deadline_exceeded and the loop exits cleanly on EOF.
    BIGXML="$TMPDIR_SMOKE/big.xml"
    { printf '<doc>'
      i=0
      while [ $i -lt 300 ]; do printf '<item>abc</item>'; i=$((i+1)); done
      printf '</doc>'; } > "$BIGXML"
    OUT=$(printf '%s\n' "{\"id\":2,\"query\":\"<out>{ for \$x in \$input/doc/item return <hit>{\$x/text()}</hit> }</out>\",\"inputs\":[\"$BIGXML\"],\"deadline_ms\":20,\"fault\":{\"kind\":\"stall\",\"at_event\":1,\"stall_ms\":200}}" \
          | "$XQMFT" serve --enable-fault-injection) || fail "exit $?"
    expect_contains "$OUT" '"id":2,"ok":false'
    expect_contains "$OUT" '"status":"deadline_exceeded"'
    ;;
  serve_deep_query)
    # Query nesting is capped at 256 levels (kMaxParseNesting in
    # src/util/strings.h); each element constructor, clause and path step is
    # one, so k constructors around {$input/doc/item} nest k + 3 deep. One
    # level over the cap is rejected with invalid_argument, a query at the
    # cap compiles and streams, and the session keeps serving: over stdin,
    # and over the socket server, whose worker threads run the query.
    deep_request() {  # $1 = id, $2 = element constructors
      printf '{"id":%s,"query":"' "$1"
      i=0; while [ "$i" -lt "$2" ]; do printf '<a>'; i=$((i+1)); done
      printf '{$input/doc/item}'
      i=0; while [ "$i" -lt "$2" ]; do printf '</a>'; i=$((i+1)); done
      printf '","inputs":["%s"]}\n' "$XML"
    }
    REQS="$TMPDIR_SMOKE/deep.ndjson"
    { deep_request 1 254; deep_request 2 253
      printf '%s\n' "{\"id\":3,\"query\":\"<out>{ for \$x in \$input/doc/item return <hit>{\$x/text()}</hit> }</out>\",\"inputs\":[\"$XML\"]}"
    } > "$REQS"
    check_deep() {
      expect_contains "$1" '"id":1,"ok":false'
      expect_contains "$1" 'nesting exceeds the limit of 256 levels'
      expect_contains "$1" '"status":"invalid_argument"'
      expect_contains "$1" '"id":2,"ok":true'
      expect_contains "$1" '<a><item>a</item><item>b</item></a>'
      expect_contains "$1" '"id":3,"ok":true'
      expect_contains "$1" "$WANT"
    }
    OUT=$("$XQMFT" serve < "$REQS") || fail "exit $?"
    check_deep "$OUT"
    SRVOUT="$TMPDIR_SMOKE/server.out"
    "$XQMFT" serve --port 0 --workers 2 > "$SRVOUT" 2>/dev/null &
    SRV=$!
    PORT=
    i=0
    while [ $i -lt 100 ]; do
      PORT=$(sed -n 's/^listening port=//p' "$SRVOUT")
      [ -n "$PORT" ] && break
      i=$((i+1)); sleep 0.1
    done
    [ -n "$PORT" ] || { kill "$SRV" 2>/dev/null; fail "no listening port"; }
    OUT=$("$XQMFT" client --port "$PORT" < "$REQS") \
      || { kill "$SRV" 2>/dev/null; fail "client exit $?"; }
    kill -TERM "$SRV"
    wait "$SRV"
    RC=$?
    check_deep "$OUT"
    [ "$RC" -eq 0 ] || fail "server exit $RC after SIGTERM"
    ;;
  serve_net)
    # The socket front end: serve --port 0 prints the bound ephemeral port,
    # the client subcommand round-trips a request and a server_stats
    # command, and SIGTERM drains to a clean exit 0.
    SRVOUT="$TMPDIR_SMOKE/server.out"
    "$XQMFT" serve --port 0 --workers 2 > "$SRVOUT" 2>/dev/null &
    SRV=$!
    PORT=
    i=0
    while [ $i -lt 100 ]; do
      PORT=$(sed -n 's/^listening port=//p' "$SRVOUT")
      [ -n "$PORT" ] && break
      i=$((i+1)); sleep 0.1
    done
    [ -n "$PORT" ] || { kill "$SRV" 2>/dev/null; fail "no listening port"; }
    OUT=$(printf '%s\n' \
      "{\"id\":1,\"query\":\"<out>{ for \$x in \$input/doc/item return <hit>{\$x/text()}</hit> }</out>\",\"inputs\":[\"$XML\"]}" \
      '{"cmd":"server_stats"}' \
      | "$XQMFT" client --port "$PORT") \
      || { kill "$SRV" 2>/dev/null; fail "client exit $?"; }
    expect_contains "$OUT" '"id":1,"ok":true'
    expect_contains "$OUT" "$WANT"
    expect_contains "$OUT" '"server":{"connections":1'
    kill -TERM "$SRV"
    wait "$SRV"
    RC=$?
    [ "$RC" -eq 0 ] || fail "server exit $RC after SIGTERM"
    ;;
  serve_net_sigterm)
    # Graceful drain under SIGTERM: a request mid-stall on the worker when
    # the signal lands is still computed and delivered in full before the
    # server exits 0.
    SRVOUT="$TMPDIR_SMOKE/server.out"
    "$XQMFT" serve --port 0 --workers 1 --enable-fault-injection \
      > "$SRVOUT" 2>/dev/null &
    SRV=$!
    PORT=
    i=0
    while [ $i -lt 100 ]; do
      PORT=$(sed -n 's/^listening port=//p' "$SRVOUT")
      [ -n "$PORT" ] && break
      i=$((i+1)); sleep 0.1
    done
    [ -n "$PORT" ] || { kill "$SRV" 2>/dev/null; fail "no listening port"; }
    CLOUT="$TMPDIR_SMOKE/client.out"
    printf '%s\n' "{\"id\":9,\"query\":\"<out>{ for \$x in \$input/doc/item return <hit>{\$x/text()}</hit> }</out>\",\"inputs\":[\"$XML\"],\"fault\":{\"kind\":\"stall\",\"at_event\":1,\"stall_ms\":600}}" \
      | "$XQMFT" client --port "$PORT" > "$CLOUT" &
    CL=$!
    sleep 0.3  # the request is now mid-stall on the worker
    kill -TERM "$SRV"
    wait "$SRV"
    RC=$?
    [ "$RC" -eq 0 ] || fail "server exit $RC after SIGTERM"
    wait "$CL" || fail "client failed"
    expect_contains "$(cat "$CLOUT")" '"id":9,"ok":true'
    expect_contains "$(cat "$CLOUT")" "$WANT"
    ;;
  stats)
    OUT=$("$XQMFT" stats "$XML") || fail "exit $?"
    expect_contains "$OUT" "elements: 3"
    expect_contains "$OUT" "depth: 3"
    ;;
  bad_query)
    OUT=$("$XQMFT" run '<<<' "$XML" 2>&1)
    test $? -eq 0 && fail "expected nonzero exit for a malformed query"
    expect_contains "$OUT" "MinXQuery error"
    ;;
  *)
    fail "unknown case"
    ;;
esac

exit 0
