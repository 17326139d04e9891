#!/usr/bin/env bash
# Code-size metrics of the workspace crates, as ROADMAP counts them.
#
#   bash .github/scripts/code-size.sh [REPO_ROOT]
#
# For each crate under crates/ it prints two numbers, then their totals:
#   non-test lines  lines of crates/<crate>/src/**/*.rs before each
#                   file's test module: the first top-level
#                   `#[cfg(test)]` whose item (after any further
#                   attributes) is a `mod` (a file without one counts
#                   whole; a `#[cfg(test)]` on a statement or another
#                   item counts like any other line);
#   public decls    those non-test lines that open a `pub fn`, `struct`,
#                   `enum`, `trait`, `type`, `const`, `static`, `mod` or
#                   `use` (`pub(crate)` and other restricted forms do not
#                   count).
# It reads files only and gates nothing.
set -euo pipefail

root=${1:-$(cd "$(dirname "$0")/../.." && pwd)}
decl='^[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod|use)([^[:alnum:]_]|$)'

# Non-test text of one file: everything before its test module. A
# top-level #[cfg(test)] is held back with the attributes that follow
# it until the item shows whether it opens a `mod`.
non_test() {
    awk '
        held != "" && /^#\[/ { held = held "\n" $0; next }
        held != "" && /^(pub(\([^)]*\))? )?mod / { held = ""; exit }
        held != "" { print held; held = "" }
        /^#\[cfg\(test\)\]/ { held = $0; next }
        { print }
        END { if (held != "") print held }
    ' "$1"
}

printf '%-10s %15s %13s\n' crate non-test-lines public-decls
total_lines=0
total_decls=0
for dir in "$root"/crates/*/; do
    crate=$(basename "$dir")
    lines=0
    decls=0
    while IFS= read -r -d '' file; do
        lines=$((lines + $(non_test "$file" | wc -l)))
        decls=$((decls + $(non_test "$file" | grep -cE "$decl" || true)))
    done < <(find "$dir/src" -name '*.rs' -print0 | sort -z)
    printf '%-10s %15d %13d\n' "$crate" "$lines" "$decls"
    total_lines=$((total_lines + lines))
    total_decls=$((total_decls + decls))
done
printf '%-10s %15d %13d\n' total "$total_lines" "$total_decls"
