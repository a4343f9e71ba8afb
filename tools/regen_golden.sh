#!/usr/bin/env bash
# Regenerate the golden PAF fixtures under tests/data/golden/.
#
#   tools/regen_golden.sh [--build-dir DIR]
#
# Inputs (deterministic; genasmx_simulate at fixed seeds, then one awk
# pass that inserts diverged repeat copies so reads carry competing
# candidates on both strands and, for the 2-contig reference, across
# contigs):
#   one.fa            1 contig,  ~60 kb (50 kb genome + 4 x 2.5 kb copies)
#   two.fa            2 contigs, ~60 kb (50 kb genome + 4 x 2.5 kb copies)
#   <ref>.long.fq     40 x 2 kb PacBio-CLR-like reads at 10% error
#   <ref>.short.fq    200 x 150 bp Illumina-like reads at 1% error
# Expected output, one file per (reference, reads, flow):
#   <ref>.<reads>.all.paf      default flow (primary + secondaries)
#   <ref>.<reads>.primary.paf  --primary-only
#   <ref>.<reads>.sketch.paf   --primary-only --prefilter sketch
#
# The PAF is the mapper's output contract: tests/test_golden.cpp and the
# CI "golden PAF" step compare against these bytes. Rerun this script
# only for a change that alters PAF on purpose, and say so in the commit.
set -euo pipefail

build_dir=build
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) build_dir=$2; shift 2 ;;
    *) echo "usage: $0 [--build-dir DIR]" >&2; exit 2 ;;
  esac
done

repo_root=$(cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"
for tool in genasmx_simulate genasmx_map; do
  if [[ ! -x "$build_dir/$tool" ]]; then
    echo "error: $build_dir/$tool not built" >&2
    exit 1
  fi
done

out=tests/data/golden
mkdir -p "$out"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Insert diverged copies into a FASTA. ops is a comma-separated list of
# dst_contig:dst_pos:src_contig:src_pos:len (1-based contig numbers,
# 0-based positions into the original sequences); list each contig's
# insertions in descending dst_pos so every position refers to the
# original coordinates. Every 40th base of a copy is substituted (2.5%
# divergence): near- but not exact repeats.
insert_repeats() {
  awk -v ops="$1" '
    function diverge(s,    r, i, c) {
      r = ""
      for (i = 1; i <= length(s); i++) {
        c = substr(s, i, 1)
        if (i % 40 == 0) {
          c = (c == "A") ? "C" : (c == "C") ? "G" : (c == "G") ? "T" : "A"
        }
        r = r c
      }
      return r
    }
    /^>/ { n++; split(substr($0, 2), f, " "); name[n] = f[1]; next }
    { seq[n] = seq[n] $0 }
    END {
      for (i = 1; i <= n; i++) res[i] = seq[i]
      k = split(ops, op, ",")
      for (j = 1; j <= k; j++) {
        split(op[j], a, ":")
        copy = diverge(substr(seq[a[3]], a[4] + 1, a[5]))
        res[a[1]] = substr(res[a[1]], 1, a[2]) copy substr(res[a[1]], a[2] + 1)
      }
      for (i = 1; i <= n; i++) {
        print ">" name[i] " len=" length(res[i])
        for (p = 1; p <= length(res[i]); p += 80) print substr(res[i], p, 80)
      }
    }'
}

sim="$build_dir/genasmx_simulate"
# 1 contig: long and short reads come from the same 50 kb genome (same
# --genome and --seed), checked below.
"$sim" --out "$tmp/one_long" --genome 50000 --seed 101 \
  --reads 40 --length 2000 --error 0.10
"$sim" --out "$tmp/one_short" --genome 50000 --seed 101 \
  --illumina --reads 200 --length 150 --error 0.01
"$sim" --out "$tmp/two_long" --genome 50000 --contigs 2 --seed 202 \
  --reads 40 --length 2000 --error 0.10
"$sim" --out "$tmp/two_short" --genome 50000 --contigs 2 --seed 202 \
  --illumina --reads 200 --length 150 --error 0.01
cmp "$tmp/one_long.fa" "$tmp/one_short.fa"
cmp "$tmp/two_long.fa" "$tmp/two_short.fa"

insert_repeats "1:47000:1:5000:2500,1:42000:1:26000:2500,1:31000:1:12000:2500,1:20000:1:5000:2500" \
  < "$tmp/one_long.fa" > "$out/one.fa"
insert_repeats "1:12000:2:15000:2500,1:8000:2:4000:2500,2:25000:1:9000:2500,2:10000:1:3000:2500" \
  < "$tmp/two_long.fa" > "$out/two.fa"
for ref in one two; do
  cp "$tmp/${ref}_long.reads.fq" "$out/$ref.long.fq"
  cp "$tmp/${ref}_short.reads.fq" "$out/$ref.short.fq"
done

# map REF READS FLOW [FLAGS...]: PAF for one fixture and flow.
map() {
  "$build_dir/genasmx_map" --ref "$out/$1.fa" --reads "$out/$1.$2.fq" \
    --threads 4 --out "$out/$1.$2.$3.paf" "${@:4}" 2> /dev/null
}
for ref in one two; do
  for reads in long short; do
    map $ref $reads all
    map $ref $reads primary --primary-only
    map $ref $reads sketch --primary-only --prefilter sketch
  done
done
wc -lc "$out"/*.paf
