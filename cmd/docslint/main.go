// Command docslint keeps the repo's documentation honest with two
// checks, both pure standard library:
//
//   - Package docs: every Go package under internal/ and cmd/ must
//     carry a package doc comment in at least one non-test file.
//     These comments are where each package states its role in the
//     paper's design and its concurrency invariants (see
//     docs/ARCHITECTURE.md); a package without one is a subsystem the
//     next reader has to reverse-engineer.
//   - Relative links: every relative markdown link in README.md,
//     ROADMAP.md, CHANGES.md, docs/*.md and perfbench/README.md must
//     resolve to a file or directory in the repo. Dead relative links
//     are how doc rot starts — the CI docs-lint step fails on them.
//
// Usage:
//
//	docslint [repo-root]
//
// Exit code 1 means findings, 2 means the tool itself failed.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	findings, err := Lint(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docslint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "docslint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// Lint runs both checks under root and returns human-readable
// findings, one per problem, in walk order.
func Lint(root string) ([]string, error) {
	var findings []string
	pkg, err := lintPackageDocs(root)
	if err != nil {
		return nil, err
	}
	findings = append(findings, pkg...)
	links, err := lintRelativeLinks(root)
	if err != nil {
		return nil, err
	}
	findings = append(findings, links...)
	return findings, nil
}

// lintPackageDocs walks internal/ and cmd/ for Go package directories
// lacking a package doc comment in every non-test file.
func lintPackageDocs(root string) ([]string, error) {
	var findings []string
	for _, top := range []string{"internal", "cmd"} {
		base := filepath.Join(root, top)
		if _, err := os.Stat(base); os.IsNotExist(err) {
			continue
		}
		err := filepath.WalkDir(base, func(dir string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				return err
			}
			hasGo, hasDoc := false, false
			for _, ent := range ents {
				name := ent.Name()
				if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
					continue
				}
				hasGo = true
				f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil,
					parser.ParseComments|parser.PackageClauseOnly)
				if err != nil {
					return fmt.Errorf("%s: %w", filepath.Join(dir, name), err)
				}
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					hasDoc = true
					break
				}
			}
			if hasGo && !hasDoc {
				rel, _ := filepath.Rel(root, dir)
				findings = append(findings, fmt.Sprintf("%s: package has no package doc comment in any non-test file", rel))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return findings, nil
}

// linkRe matches markdown inline links and images: [text](target).
// Code spans are stripped before matching, so `[x](y)` in backticks
// is not a link.
var (
	linkRe     = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)
	codeSpanRe = regexp.MustCompile("`[^`]*`")
)

// lintRelativeLinks checks that relative links in the repo's top-level
// markdown files, docs/, and the benchmark's README resolve.
func lintRelativeLinks(root string) ([]string, error) {
	var files []string
	for _, name := range []string{"README.md", "ROADMAP.md", "CHANGES.md", "PAPER.md", "perfbench/README.md"} {
		p := filepath.Join(root, name)
		if _, err := os.Stat(p); err == nil {
			files = append(files, p)
		}
	}
	docs, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	files = append(files, docs...)

	var findings []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, file)
		inFence := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			line = codeSpanRe.ReplaceAllString(line, "")
			for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "#") ||
					strings.HasPrefix(target, "mailto:") {
					continue
				}
				if h := strings.IndexByte(target, '#'); h >= 0 {
					target = target[:h]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(file), target)
				if _, err := os.Stat(resolved); err != nil {
					findings = append(findings, fmt.Sprintf("%s:%d: relative link %q does not resolve", rel, i+1, m[1]))
				}
			}
		}
	}
	return findings, nil
}
