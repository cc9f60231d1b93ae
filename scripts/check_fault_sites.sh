#!/bin/sh
# Fails (exit 1) when the fault sites declared in
# src/util/fault_injection.hpp (the kFault* name constants) differ from the
# sites listed in docs/ROBUSTNESS.md's "Fault-site registry" table, and
# prints the sites found on one side only.
#
# Usage: scripts/check_fault_sites.sh [repo-root]   (default: cwd)

set -u
root="${1:-.}"
header="$root/src/util/fault_injection.hpp"
doc="$root/docs/ROBUSTNESS.md"

for f in "$header" "$doc"; do
  if [ ! -f "$f" ]; then
    echo "fault-site check: missing $f"
    exit 1
  fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# `inline constexpr std::string_view kFaultX = "site.name";` -> site.name
sed -n 's/^inline constexpr std::string_view kFault[A-Za-z0-9]* = "\([^"]*\)";.*/\1/p' \
  "$header" | sort > "$tmp/code"
# First-column `site` of each table row between the registry heading and
# the next heading.
sed -n '/^## Fault-site registry/,/^## /p' "$doc" |
  sed -n 's/^| `\([^`]*\)` |.*/\1/p' | sort > "$tmp/doc"

if [ ! -s "$tmp/code" ]; then
  echo "fault-site check: no kFault* sites found in $header"
  exit 1
fi

status=0
for site in $(comm -23 "$tmp/code" "$tmp/doc"); do
  echo "UNDOCUMENTED FAULT SITE: $site (in $header, not in $doc)"
  status=1
done
for site in $(comm -13 "$tmp/code" "$tmp/doc"); do
  echo "STALE FAULT SITE: $site (in $doc, not in $header)"
  status=1
done
if [ "$status" -eq 0 ]; then
  echo "fault-site check: $(wc -l < "$tmp/code") sites match the registry"
fi
exit $status
