#!/usr/bin/env bash
# Runs every example under examples/. An example's stdout must equal the
# "## Sample output" block of its README byte for byte, except for those in
# EXIT_ONLY, whose output is not a function of the code (remoteswap prints
# loopback ports and a wall-time hit ratio): they only have to exit 0.
#
#   scripts/check_examples.sh          # or: make examples
set -u
GO=${GO:-go}
EXIT_ONLY="remoteswap"
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
for dir in examples/*/; do
	name=$(basename "$dir")
	if ! $GO run "./$dir" >"$tmp/$name.out" 2>"$tmp/$name.err"; then
		echo "examples/$name: exited non-zero"
		cat "$tmp/$name.err"
		status=1
		continue
	fi
	case " $EXIT_ONLY " in *" $name "*)
		echo "examples/$name: ok (exit status only)"
		continue ;;
	esac
	# The first fenced block after the "## Sample output" heading.
	awk '/^## Sample output/ { in_section = 1; next }
	     in_section && /^```/ { if (in_block) exit; in_block = 1; next }
	     in_block' "$dir/README.md" >"$tmp/$name.want"
	if [ ! -s "$tmp/$name.want" ]; then
		echo "examples/$name: README.md has no \"## Sample output\" block"
		status=1
	elif ! diff -u "$tmp/$name.want" "$tmp/$name.out" >"$tmp/$name.diff"; then
		echo "examples/$name: output differs from README.md's sample (- README, + output):"
		cat "$tmp/$name.diff"
		status=1
	else
		echo "examples/$name: ok"
	fi
done
exit $status
