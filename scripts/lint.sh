#!/bin/sh
# Formatting gate for CI: cheap, deterministic checks that need no extra
# tooling beyond a POSIX shell.  ocamlformat is intentionally not required —
# the container image the tests run in does not ship it; if it ever does,
# switch this to `dune build @fmt`.
#
#   - no trailing whitespace in sources, docs, or build files
#   - no tab characters in OCaml sources (the repo indents with spaces)
#   - every non-empty tracked text file ends with a newline (committed JSON
#     expectations included: the CI gates byte-compare freshly generated
#     reports, which the tools always terminate with a newline)
#   - every library module has an interface: a lib/**/*.ml without a
#     matching .mli breaks the repo-wide convention (the build-time Pool
#     backend variants share pool_backend.mli and are allowlisted)
#   - no Stdlib Random where outputs are pinned: lib/, bin/, bench/,
#     examples/ and the member stream driver draw only from Sim.Rng, since
#     OCaml 5 changed Random's generator and the goldens must read the same
#     on every CI compiler
#   - one GMT sublayer: outside lib/causal/, lib/core/gmt.ml and the
#     checker's Delivery replay (lib/workload/checker.ml), nothing in lib/,
#     bin/ or examples/ calls Waiting_list.add, take_processable,
#     discard_from or Delivery.mark, so no second processing loop grows
#     back; bench/ and test/ exercise the structures directly
#
# Exits non-zero listing each offending file.

set -eu

cd "$(dirname "$0")/.."

status=0

sources=$(git ls-files '*.ml' '*.mli' '*.md' '*.opam' '*.sh' '*.json' \
  'dune-project' '**/dune' 'dune' '.github/workflows/*.yml' \
  '.github/actions/*/action.yml' | grep -v '^_build/' || true)

for f in $sources; do
  [ -f "$f" ] || continue
  if grep -qn '[ 	]$' "$f"; then
    echo "lint: trailing whitespace in $f:" >&2
    grep -n '[ 	]$' "$f" | head -5 >&2
    status=1
  fi
  case "$f" in
  *.ml | *.mli)
    if grep -qn '	' "$f"; then
      echo "lint: tab character in $f:" >&2
      grep -n '	' "$f" | head -5 >&2
      status=1
    fi
    ;;
  esac
  if [ -s "$f" ] && [ "$(tail -c1 "$f" | wc -l)" -eq 0 ]; then
    echo "lint: missing final newline in $f" >&2
    status=1
  fi
done

for f in $(git ls-files 'lib/**/*.ml' | grep -v '^_build/' || true); do
  case "$f" in
  # Build-time backend selection: both variants are copied to
  # pool_backend.ml and constrained by the shared pool_backend.mli.
  lib/sim/pool_backend_domains.ml | lib/sim/pool_backend_seq.ml) continue ;;
  esac
  if [ ! -f "${f%.ml}.mli" ]; then
    echo "lint: $f has no matching .mli interface" >&2
    status=1
  fi
done

if hits=$(git grep -n -E '(^|[^A-Za-z0-9_])Random\.' -- lib bin bench examples \
  test/member_stream.ml); then
  echo "lint: Stdlib Random where outputs are pinned (draw from Sim.Rng):" >&2
  echo "$hits" | head -5 >&2
  status=1
fi

if hits=$(git grep -n -E \
  '(Waiting_list\.add|Delivery\.mark)([^A-Za-z0-9_]|$)|take_processable|discard_from' \
  -- lib bin examples ':!lib/causal' ':!lib/core/gmt.ml' \
  ':!lib/workload/checker.ml'); then
  echo "lint: GMT structure changed outside Urcgc.Gmt (process, purge and" \
    "recover through lib/core/gmt.ml):" >&2
  echo "$hits" | head -5 >&2
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "lint: clean"
fi
exit "$status"
