package smtlib

import (
	"fmt"
	"strconv"
	"strings"
)

// parseValues parses a get-value reply — ((X 3) (Y (- 2)) ...) — into a
// model, strictly: every requested variable must appear exactly once with
// a plain or negated integer literal. Anything else (solver error forms,
// algebraic values, missing entries) is an error, which the supervisor
// treats as a garbage reply.
func parseValues(reply string, vars []string) (map[string]int64, error) {
	toks := tokenize(reply)
	p := &tokens{list: toks}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	model := make(map[string]int64, len(vars))
	//diselint:ignore interruptloop bounded: consumes at least three tokens of a finite reply per iteration
	for p.peek() != ")" {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		name := p.next()
		if name == "" || name == "(" || name == ")" {
			return nil, fmt.Errorf("smtlib: malformed get-value pair near %q", name)
		}
		v, err := p.intValue()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if _, dup := model[name]; dup {
			return nil, fmt.Errorf("smtlib: variable %s appears twice in model", name)
		}
		model[name] = v
	}
	for _, v := range vars {
		if _, ok := model[v]; !ok {
			return nil, fmt.Errorf("smtlib: model is missing variable %s", v)
		}
	}
	return model, nil
}

// intValue parses an integer literal or the negation form (- N).
func (p *tokens) intValue() (int64, error) {
	t := p.next()
	if t == "(" {
		if op := p.next(); op != "-" {
			return 0, fmt.Errorf("smtlib: unsupported model value form (%s ...)", op)
		}
		// Parse the negated literal whole: the magnitude of MinInt64
		// overflows int64 on its own.
		n := p.next()
		v, err := strconv.ParseInt("-"+n, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("smtlib: bad negated model value %q", n)
		}
		if err := p.expect(")"); err != nil {
			return 0, err
		}
		return v, nil
	}
	v, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("smtlib: bad model value %q", t)
	}
	return v, nil
}

type tokens struct {
	list []string
	pos  int
}

func (p *tokens) next() string {
	if p.pos >= len(p.list) {
		return ""
	}
	t := p.list[p.pos]
	p.pos++
	return t
}

func (p *tokens) peek() string {
	if p.pos >= len(p.list) {
		return ""
	}
	return p.list[p.pos]
}

func (p *tokens) expect(t string) error {
	if got := p.next(); got != t {
		return fmt.Errorf("smtlib: expected %q in model reply, got %q", t, got)
	}
	return nil
}

// tokenize splits an s-expression into parens and atoms.
func tokenize(s string) []string {
	var out []string
	var atom strings.Builder
	flush := func() {
		if atom.Len() > 0 {
			out = append(out, atom.String())
			atom.Reset()
		}
	}
	for _, r := range s {
		switch r {
		case '(', ')':
			flush()
			out = append(out, string(r))
		case ' ', '\t', '\n', '\r':
			flush()
		default:
			atom.WriteRune(r)
		}
	}
	flush()
	return out
}
