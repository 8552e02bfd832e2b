#!/bin/sh
# Builds the end-to-end benchmark from source and runs it with the given
# arguments.  Run from the repository root; see bench_e2e/E2E.md.  The dune
# cache is off so that building writes nothing outside the checkout.
exec dune exec --root . --cache=disabled --display=quiet -- ./bench_e2e/main.exe "$@"
