#!/bin/sh
# check-doc-links.sh — fail if README.md, docs/*.md or Go source files
# reference local files that do not exist. Checks three reference styles:
#   1. markdown links:        [text](path/to/file.md#anchor)
#   2. backticked file paths: `docs/API.md`, `BENCH_PR2.json`
#   3. *.md names in Go files: // see docs/API.md
# URLs and pure anchors are ignored; backticked tokens only count as
# file references when they end in a known file extension (so Go
# identifiers like `reds.NewEngine` are not mistaken for files).
set -eu
cd "$(dirname "$0")/.."

status=0

check() { # $1 = source doc, $2 = referenced target, $3 = base dir of doc
    md=$1
    target=$2
    base=$3
    case $target in
        http://* | https://* | mailto:* | \#*) return 0 ;;
    esac
    t=${target%%#*} # strip anchor
    [ -z "$t" ] && return 0
    # Resolve relative to the referencing file first, then the repo
    # root (README links are written root-relative either way).
    if [ -e "$base/$t" ] || [ -e "$t" ]; then
        return 0
    fi
    echo "broken reference in $md: $target" >&2
    status=1
}

for md in README.md docs/*.md; do
    [ -f "$md" ] || continue
    base=$(dirname "$md")
    for target in $(grep -oE '\]\([^) ]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//'); do
        check "$md" "$target" "$base"
    done
    for target in $(grep -oE '`[A-Za-z0-9_./-]+`' "$md" | tr -d '`'); do
        case $target in
            *.md | *.json | *.sh | *.yml | *.yaml | *.csv | *.go)
                check "$md" "$target" "$base"
                ;;
        esac
    done
done

for src in $(find . -name '*.go' -not -path './.bench_build/*' | sed 's|^\./||'); do
    for target in $(grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md\b' "$src"); do
        check "$src" "$target" "$(dirname "$src")"
    done
done

if [ "$status" -eq 0 ]; then
    echo "doc links OK"
fi
exit $status
