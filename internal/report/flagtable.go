package report

import (
	"bytes"
	"flag"
	"fmt"
	"strings"
)

// FlagTable renders a flag set as the marked Markdown block README.md
// embeds for the binary called name: one row per flag in name order, with
// `-name type` and the usage exactly as -h prints them, default included.
// Each binary's test looks for this block in the README, so the table
// cannot drift. The testing package's own -test.* flags are left out,
// which lets a test pass flag.CommandLine.
func FlagTable(name string, fs *flag.FlagSet) string {
	var help bytes.Buffer
	out := fs.Output()
	fs.SetOutput(&help)
	fs.PrintDefaults()
	fs.SetOutput(out)
	var b strings.Builder
	fmt.Fprintf(&b, "<!-- flags:%s -->\n| Flag | Description |\n|---|---|\n", name)
	// PrintDefaults writes two lines per flag: "  -name type", then the
	// indented usage.
	lines := strings.Split(strings.TrimRight(help.String(), "\n"), "\n")
	for i := 0; i+1 < len(lines); i += 2 {
		if name := strings.TrimSpace(lines[i]); !strings.HasPrefix(name, "-test.") {
			fmt.Fprintf(&b, "| `%s` | %s |\n", name, strings.TrimSpace(lines[i+1]))
		}
	}
	b.WriteString("<!-- /flags -->")
	return b.String()
}
