// Package flagcheck is the flag boundary of the cmd/ binaries: it parses the
// command line and rejects out-of-range values before they reach code that
// slices, allocates or schedules with them.
package flagcheck

import (
	"flag"
	"fmt"
	"time"
)

// Parse parses args into fs (which must use flag.ContinueOnError) and range-
// checks every flag: an int (each is a count or a size) or a duration must
// be >= 0, and the named probability flags must lie in [0, 1] (NaN is out).
// When done is true the command should exit with code: 0 after -h, 2 after a
// usage error, which has been reported on fs.Output() — for a range error as
// the one line "<fs.Name()>: -flag must be …".
func Parse(fs *flag.FlagSet, args []string, probabilities ...string) (code int, done bool) {
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0, true
		}
		return 2, true
	}
	prob := make(map[string]bool, len(probabilities))
	for _, name := range probabilities {
		prob[name] = true
	}
	bad := ""
	fs.VisitAll(func(f *flag.Flag) {
		if bad != "" {
			return
		}
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			if v < 0 {
				bad = fmt.Sprintf("-%s must be >= 0, got %d", f.Name, v)
			}
		case time.Duration:
			if v < 0 {
				bad = fmt.Sprintf("-%s must be >= 0, got %v", f.Name, v)
			}
		case float64:
			if prob[f.Name] && !(v >= 0 && v <= 1) {
				bad = fmt.Sprintf("-%s must be a probability in [0, 1], got %v", f.Name, v)
			}
		}
	})
	if bad != "" {
		fmt.Fprintf(fs.Output(), "%s: %s\n", fs.Name(), bad)
		return 2, true
	}
	return 0, false
}
