//go:build ignore

// Command scrape polls a log file for the address line of a spacecdn run's
// introspection endpoint or of the spacecdnd daemon, then GETs the given
// paths and asserts each returns 200 with its expected substring:
//
//	go run ./scripts/scrape.go LOGFILE PATH SUBSTR [PATH SUBSTR ...]
//
// An empty SUBSTR skips the body check. Used by scripts/verify.sh's observe
// stage to prove the live endpoint answers while a run is in flight, and by
// its serve stage to drive the built daemon over real sockets.
package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"time"
)

var listenLine = regexp.MustCompile(`(?:introspection listening|spacecdnd serving) on (http://\S+)`)

func main() {
	if len(os.Args) < 4 || len(os.Args)%2 != 0 {
		fmt.Fprintln(os.Stderr, "usage: scrape LOGFILE PATH SUBSTR [PATH SUBSTR ...]")
		os.Exit(2)
	}
	logfile := os.Args[1]

	var base string
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(logfile)
		if err == nil {
			if m := listenLine.FindSubmatch(data); m != nil {
				base = string(m[1])
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	if base == "" {
		fail("no listen address in %s within 60s", logfile)
	}

	for i := 2; i < len(os.Args); i += 2 {
		path, substr := os.Args[i], os.Args[i+1]
		resp, err := http.Get(base + path)
		if err != nil {
			fail("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			fail("read %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			fail("GET %s = %d, want 200", path, resp.StatusCode)
		}
		if substr != "" && !strings.Contains(string(body), substr) {
			fail("GET %s: body lacks %q (%d bytes)", path, substr, len(body))
		}
		fmt.Printf("scrape: %s OK (%d bytes)\n", path, len(body))
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scrape: "+format+"\n", args...)
	os.Exit(1)
}
