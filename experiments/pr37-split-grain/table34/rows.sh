#!/bin/bash
# Table 3+4 ratios of two trees beside N busy loops.
# usage: rows.sh PARENT_TREE CHANGE_TREE N ROUNDS
# Copies rows_test.go.txt into each tree's internal/bench as zz_rows_test.go
# (remove it afterwards), starts N `yes` loops, and prints, per round and
# side, each resolution's simulated GOP/improved and improved/simple ratios.
# TestTable34Ordering fails when GOP/improved < 0.75 or improved/simple < 1/0.97.
set -e
A=$1; B=$2; N=$3; R=$4
here=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
pids=()
for i in $(seq "$N"); do yes > /dev/null & pids+=($!); done
trap 'kill ${pids[@]} 2>/dev/null; rm -rf "$tmp"; true' EXIT
for side in parent change; do
  d=$A; [ $side = change ] && d=$B
  cp "$here/rows_test.go.txt" "$d/internal/bench/zz_rows_test.go"
  (cd "$d" && go test -c -o "$tmp/$side.test" ./internal/bench)
done
for r in $(seq "$R"); do
  for side in parent change; do
    d=$A; [ $side = change ] && d=$B
    (cd "$d/internal/bench" && "$tmp/$side.test" -test.run '^TestZZRows$' -test.v 2>&1 | grep ROW | sed "s/^.*ROW/$side r$r/")
  done
done
