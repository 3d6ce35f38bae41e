package experiments

import (
	"fmt"
	"strings"
)

// col is one column of a figure's table: its header, its width (negative
// left-aligns, as %-*s does; 0 does not pad) and the fmt verb of its cells
// ("" prints %v). A column with no header is a trailing note the header
// line leaves out.
type col struct {
	head  string
	width int
	verb  string
}

// percent is the verb of a ratio column printed as a percentage.
const percent = "%.1f%%"

// table writes a header line and one line per row, each prefixed by
// indent, with every cell formatted by its column's verb and padded with
// %*s. fmt counts width in runes, so a cell with a × or % suffix lines up
// under its header.
func table(b *strings.Builder, indent string, cols []col, rows [][]any) {
	b.WriteString(indent)
	for i, c := range cols {
		if c.head == "" {
			continue
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, "%*s", c.width, c.head)
	}
	b.WriteByte('\n')
	for _, row := range rows {
		b.WriteString(indent)
		for i, c := range cols {
			if i > 0 {
				b.WriteByte(' ')
			}
			verb := c.verb
			if verb == "" {
				verb = "%v"
			}
			fmt.Fprintf(b, "%*s", c.width, fmt.Sprintf(verb, row[i]))
		}
		b.WriteByte('\n')
	}
}
