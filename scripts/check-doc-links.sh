#!/bin/sh
# check-doc-links.sh — fail if README.md, docs/*.md or Go source files
# reference local files that do not exist. Checks three reference styles:
#   1. markdown links:        [text](path/to/file.md#anchor)
#   2. backticked file paths: `docs/API.md`, `BENCH_PR2.json`
#   3. *.md and *.go names in Go files: // see docs/API.md, flat.go
# URLs and pure anchors are ignored; backticked tokens only count as
# file references when they end in a known file extension (so Go
# identifiers like `reds.NewEngine` are not mistaken for files). In Go
# files a name resolves from the file's own directory first, and a
# token starting with _ is a suffix literal ("_test.go"), not a file.
#
# It also fails when the server flags and docs/API.md disagree: every
# flag.*("name", …) or flag.*Var(&v, "name", …) in cmd/redsserver,
# cmd/redsgateway and the cmd/internal/daemon package they share must
# appear as `-name` in docs/API.md, and every flag a row of its flag tables
# names must be defined. Any `-name` in README.md or docs/*.md must be
# a flag of those servers or of bench/main.go. Likewise for job
# requests: every json field of engine.Request and apiJobRequest must
# be a row of the POST /v1/jobs table, and every row of that table must
# name a field.
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
    for target in $(grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_]\.(md|go)\b' "$src"); do
        case $target in
            _*) continue ;;
        esac
        check "$src" "$target" "$(dirname "$src")"
    done
done

api=docs/API.md
defined=$(grep -ohE 'flag\.[A-Za-z0-9]+\(([^,"()]+, *)?"[^"]+"' cmd/redsserver/*.go cmd/redsgateway/*.go cmd/internal/daemon/*.go |
    sed -E 's/^[^"]*"//; s/"$//' | sort -u)
for name in $defined; do
    if ! grep -qF "\`-$name\`" "$api"; then
        echo "flag -$name is not documented in $api" >&2
        status=1
    fi
done
# A flag-table row starts with a backticked flag; its first cell may
# name several (`-log.level` / `-log.format`).
for name in $(grep -E '^\| *`-' "$api" | sed -E 's/^\|([^|]*)\|.*/\1/' |
    grep -oE '`-[A-Za-z0-9._-]+`' | sed -E 's/^`-//; s/`$//' | sort -u); do
    if ! echo "$defined" | grep -qxF "$name"; then
        echo "$api documents -$name, which no server defines" >&2
        status=1
    fi
done

# Every backticked -flag in README.md and docs/*.md must name a flag
# that the servers or the benchmark driver (bench/main.go) define.
known=$({
    echo "$defined"
    grep -ohE 'flag\.[A-Za-z0-9]+\("[^"]+"' bench/main.go | sed -E 's/^[^"]*"//; s/"$//'
} | sort -u)
for md in README.md docs/*.md; do
    for name in $(grep -oE '`-[A-Za-z][A-Za-z0-9._/-]*`' "$md" | sed -E 's/^`-//; s/`$//' | sort -u); do
        if ! echo "$known" | grep -qxF "$name"; then
            echo "$md names flag -$name, which neither the servers nor bench/main.go define" >&2
            status=1
        fi
    done
done

# The request fields: the json names of engine.Request and of the
# wire-only apiJobRequest fields, bar checkpoint, which only the
# infrastructure sets.
fields=$(for spec in 'internal/engine/job.go:Request' 'internal/engine/api.go:apiJobRequest'; do
    awk -v t="type ${spec#*:} struct {" '$0 == t {f=1; next} f && /^}/ {exit} f' "${spec%%:*}"
done | grep -oE 'json:"[a-z0-9_]+' | sed 's/^json:"//' | grep -vxF checkpoint | sort -u)
rows=$(awk '/^## POST \/v1\/jobs /{f=1; next} /^## /{f=0} f' "$api" |
    sed -nE 's/^\| *`([a-z0-9_]+)` *\|.*/\1/p' | sort -u)
for name in $fields; do
    if ! echo "$rows" | grep -qxF "$name"; then
        echo "request field $name has no row in the POST /v1/jobs table of $api" >&2
        status=1
    fi
done
for name in $rows; do
    if ! echo "$fields" | grep -qxF "$name"; then
        echo "$api documents request field $name, which the request does not have" >&2
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "doc links, flags and request fields OK"
fi
exit $status
