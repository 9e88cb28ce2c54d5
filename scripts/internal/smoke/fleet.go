package smoke

import (
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
)

// Fleet runs redsserver and redsgateway, built from the checkout, as OS
// processes with admission on: every process reads one bearer-token
// file and holds one internal secret. The binaries, the token file and
// the processes' store directories share a temp directory that Close
// removes.
type Fleet struct {
	dir, secret string
	procs       []*exec.Cmd
}

// NewFleet builds both binaries and writes tokensJSON as the fleet's
// token file. Run it from the repository root.
func NewFleet(tokensJSON, secret string) (*Fleet, error) {
	dir, err := os.MkdirTemp("", "reds-smoke-")
	if err != nil {
		return nil, err
	}
	f := &Fleet{dir: dir, secret: secret}
	log.Printf("building binaries")
	for _, target := range []string{"redsserver", "redsgateway"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, target), "./cmd/"+target)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			f.Close()
			return nil, fmt.Errorf("building %s: %w", target, err)
		}
	}
	if err := os.WriteFile(f.tokenFile(), []byte(tokensJSON), 0o600); err != nil {
		f.Close()
		return nil, fmt.Errorf("writing token file: %w", err)
	}
	return f, nil
}

func (f *Fleet) tokenFile() string { return filepath.Join(f.dir, "tokens.json") }

// Store returns the path of the fleet's store directory called name.
func (f *Fleet) Store(name string) string { return filepath.Join(f.dir, name) }

// Start starts the binary called name ("redsserver" or "redsgateway")
// with args and the fleet's -auth.tokens and -internal.secret, its
// output on stderr.
func (f *Fleet) Start(name string, args ...string) (*exec.Cmd, error) {
	args = append(args, "-auth.tokens", f.tokenFile(), "-internal.secret", f.secret)
	c := exec.Command(filepath.Join(f.dir, name), args...)
	c.Stdout, c.Stderr = os.Stderr, os.Stderr
	if err := c.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	f.procs = append(f.procs, c)
	return c, nil
}

// Close kills every process the fleet started and removes its temp
// directory.
func (f *Fleet) Close() {
	for _, p := range f.procs {
		_ = p.Process.Kill()
		_ = p.Wait()
	}
	os.RemoveAll(f.dir)
}
