// Command replicaverify checks a placement certificate offline: no
// daemon, no network, and — by construction — no solver. The binary
// links only internal/cert, internal/core and internal/tree (a CI
// guard pins the absence of internal/solver from its dependency
// closure), so verification cost is O(tree): one canonical hash, one
// feasibility sweep, one lower-bound sweep and, when an inclusion
// proof is supplied, ⌈log₂ n⌉ hashes.
//
// Usage:
//
//	replicaverify -cert cert.json -instance instance.json
//	replicaverify -cert proof.json -instance instance.json -root <hex>
//	curl .../v2/jobs/job-000001/proof/t0 | replicaverify -instance i.json
//	replicaverify -cert cert.json -stream big.chunked
//
// -cert accepts either a bare certificate document or the service's
// /v2/jobs/{id}/proof/{task} response (the certificate, proof and
// root are then unwrapped automatically; -root overrides the embedded
// root). "-" or an absent -cert reads from stdin. -stream verifies
// against a chunked instance stream (the million-node wire format),
// read one chunk at a time.
//
// Exit status: 0 — certificate (and proof, if given) verified;
// 2 — verification failed (the precise reason is printed to stderr);
// 1 — usage or I/O error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"replicatree/internal/cert"
	"replicatree/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "replicaverify:", err)
		if isVerificationFailure(err) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// isVerificationFailure classifies an error onto exit status 2: the
// inputs were readable, and the certificate is wrong.
func isVerificationFailure(err error) bool {
	for _, sentinel := range []error{
		cert.ErrMalformed, cert.ErrInstanceHash, cert.ErrWitness,
		cert.ErrBound, cert.ErrGap, cert.ErrProof,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// proofDocument is the subset of the service's proof response this
// tool consumes. Decoding a bare certificate into it leaves
// Certificate nil, which run uses to tell the two shapes apart.
type proofDocument struct {
	CertificateRoot string            `json:"certificate_root"`
	Certificate     *cert.Certificate `json:"certificate"`
	Proof           *cert.Proof       `json:"proof"`
}

func run(args []string, stdout io.Writer, stdin io.Reader) error {
	fs := flag.NewFlagSet("replicaverify", flag.ContinueOnError)
	certPath := fs.String("cert", "-", "certificate JSON: a bare certificate or a /v2 proof response (\"-\" = stdin)")
	instPath := fs.String("instance", "", "instance JSON")
	streamPath := fs.String("stream", "", "chunked instance stream (core.WriteChunked format); alternative to -instance")
	proofPath := fs.String("proof", "", "inclusion proof JSON (optional; embedded proof of a proof response is used automatically)")
	root := fs.String("root", "", "Merkle certificate root as hex (required with a proof unless embedded in the cert document)")
	quiet := fs.Bool("q", false, "suppress the success summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if (*instPath == "") == (*streamPath == "") {
		return errors.New("exactly one of -instance or -stream is required")
	}

	// Load the certificate (and, when present, the embedded proof).
	data, err := readInput(*certPath, stdin)
	if err != nil {
		return err
	}
	var doc proofDocument
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("parsing %s: %w", describeInput(*certPath), err)
	}
	c, proof, embeddedRoot := doc.Certificate, doc.Proof, doc.CertificateRoot
	if c == nil {
		// A bare certificate document.
		c = new(cert.Certificate)
		if err := json.Unmarshal(data, c); err != nil {
			return fmt.Errorf("parsing %s: %w", describeInput(*certPath), err)
		}
		proof, embeddedRoot = nil, ""
	}
	if *proofPath != "" {
		pdata, err := os.ReadFile(*proofPath)
		if err != nil {
			return err
		}
		proof = new(cert.Proof)
		if err := json.Unmarshal(pdata, proof); err != nil {
			return fmt.Errorf("parsing %s: %w", *proofPath, err)
		}
	}
	if *root != "" {
		embeddedRoot = *root
	}

	// Replay the certificate against the instance.
	switch {
	case *instPath != "":
		idata, err := os.ReadFile(*instPath)
		if err != nil {
			return err
		}
		in := new(core.Instance)
		if err := json.Unmarshal(idata, in); err != nil {
			return fmt.Errorf("parsing %s: %w", *instPath, err)
		}
		if err := c.VerifyAgainst(in); err != nil {
			return err
		}
	default:
		f, err := os.Open(*streamPath)
		if err != nil {
			return err
		}
		fi, err := core.ReadChunked(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("parsing %s: %w", *streamPath, err)
		}
		if err := c.VerifyAgainst(&core.Instance{Tree: fi.Flat, W: fi.W, DMax: fi.DMax}); err != nil {
			return err
		}
	}

	// Check the inclusion proof, when one is in play.
	proved := false
	if proof != nil {
		if embeddedRoot == "" {
			return errors.New("an inclusion proof needs a root: pass -root or feed a full proof response")
		}
		if err := c.VerifyInclusionOf(embeddedRoot, proof); err != nil {
			return err
		}
		proved = true
	} else if embeddedRoot != "" {
		return errors.New("a root without an inclusion proof proves nothing: pass -proof or feed a full proof response")
	}

	if *quiet {
		return nil
	}
	fmt.Fprintf(stdout, "OK: %d replicas is a feasible %s placement of instance %s…\n",
		c.Replicas, c.Policy, c.InstanceHash[:12])
	fmt.Fprintf(stdout, "  lower bound (%s): %d, gap %.4f\n", c.Bound.Kind, c.Bound.Value, c.Gap)
	switch {
	case c.Replicas == c.Bound.Value:
		fmt.Fprintln(stdout, "  optimal: bound met (independently verified)")
	case c.Optimality != nil:
		fmt.Fprintf(stdout, "  optimal: attested by %s (trusted provenance, not re-proved)\n", c.Optimality.Engine)
	}
	if proved {
		fmt.Fprintf(stdout, "  inclusion: leaf %d of %d under root %s… (%d hashes)\n",
			proof.LeafIndex, proof.Leaves, embeddedRoot[:12], len(proof.Siblings))
	}
	return nil
}

func readInput(path string, stdin io.Reader) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(stdin)
	}
	return os.ReadFile(path)
}

func describeInput(path string) string {
	if path == "-" {
		return "stdin"
	}
	return path
}
