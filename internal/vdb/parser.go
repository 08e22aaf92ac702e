// Package vdb is a miniature visual analytics database: the query-system
// shell around TAHOMA that the paper envisions (Sections I and V-A,
// "Integration considerations"). It stores image metadata relationally,
// treats each installed contains_object predicate as a UDF-backed virtual
// column, plans queries so cheap metadata predicates run before expensive
// content predicates, and materializes content-predicate results so repeat
// queries are free.
//
// The SQL dialect is deliberately small:
//
//	SELECT * | COUNT(*) | col[, col...]
//	FROM images
//	WHERE cond [AND cond ...]
//	[LIMIT n]
//
// where cond is either a metadata comparison (location = 'uptown',
// ts >= 300, id != 7) or contains_object('category').
package vdb

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// CompareOp is a metadata comparison operator.
type CompareOp string

// Supported comparison operators.
const (
	OpEq CompareOp = "="
	OpNe CompareOp = "!="
	OpLt CompareOp = "<"
	OpLe CompareOp = "<="
	OpGt CompareOp = ">"
	OpGe CompareOp = ">="
)

// Value is a typed literal: either a string or an int64.
type Value struct {
	IsString bool
	Str      string
	Int      int64
}

// String renders the literal.
func (v Value) String() string {
	if v.IsString {
		return "'" + v.Str + "'"
	}
	return strconv.FormatInt(v.Int, 10)
}

// MetaCond is a metadata comparison.
type MetaCond struct {
	Column string
	Op     CompareOp
	Val    Value
}

// ContentCond is a contains_object predicate.
type ContentCond struct {
	Category string
	Negated  bool
}

// Query is a parsed SELECT statement.
type Query struct {
	CountStar bool
	Columns   []string // empty with Star/CountStar
	Star      bool
	Table     string
	Meta      []MetaCond
	Content   []ContentCond
	Limit     int // 0 = no limit
}

type tokKind int

const (
	tokIdent tokKind = iota
	tokString
	tokNumber
	tokSymbol
	tokEOF
)

type token struct {
	kind tokKind
	text string
}

// maxTokens bounds a statement. The dialect's longest sensible statement is
// a few hundred tokens; past the bound the lexer refuses instead of building
// a token list and an AST sized by whatever a client sent, so what Parse
// allocates stays a small multiple of its input (FuzzParse holds it to that).
const maxTokens = 1024

// clip cuts a token's text for an error message: a rejection costs no more
// than a short excerpt of what it rejects.
func clip(s string) string {
	const keep = 40
	if len(s) > keep {
		return s[:keep] + "..."
	}
	return s
}

func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '\'':
			j := i + 1
			for j < n && input[j] != '\'' {
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("vdb: unterminated string literal at offset %d", i)
			}
			toks = append(toks, token{tokString, input[i+1 : j]})
			i = j + 1
		case unicode.IsDigit(c) || (c == '-' && i+1 < n && unicode.IsDigit(rune(input[i+1]))):
			j := i + 1
			for j < n && (unicode.IsDigit(rune(input[j]))) {
				j++
			}
			toks = append(toks, token{tokNumber, input[i:j]})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i + 1
			for j < n && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_') {
				j++
			}
			toks = append(toks, token{tokIdent, input[i:j]})
			i = j
		case strings.ContainsRune("<>!=", c):
			j := i + 1
			if j < n && input[j] == '=' {
				j++
			}
			toks = append(toks, token{tokSymbol, input[i:j]})
			i = j
		case strings.ContainsRune("(),*", c):
			toks = append(toks, token{tokSymbol, string(c)})
			i++
		default:
			return nil, fmt.Errorf("vdb: unexpected character %q at offset %d", c, i)
		}
		if len(toks) > maxTokens {
			return nil, fmt.Errorf("vdb: statement longer than %d tokens", maxTokens)
		}
	}
	toks = append(toks, token{tokEOF, ""})
	return toks, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) kw(s string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(s string) error {
	if !p.kw(s) {
		return fmt.Errorf("vdb: expected %q, found %q", s, clip(p.peek().text))
	}
	return nil
}

func (p *parser) expectSym(s string) error {
	t := p.peek()
	if t.kind == tokSymbol && t.text == s {
		p.pos++
		return nil
	}
	return fmt.Errorf("vdb: expected %q, found %q", s, clip(t.text))
}

// Parse parses one SELECT statement.
func Parse(sql string) (*Query, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q := &Query{}
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}

	switch {
	case p.peek().kind == tokSymbol && p.peek().text == "*":
		p.next()
		q.Star = true
	case p.peek().kind == tokIdent && strings.EqualFold(p.peek().text, "count"):
		p.next()
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		if err := p.expectSym("*"); err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		q.CountStar = true
	default:
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, fmt.Errorf("vdb: expected column name, found %q", clip(t.text))
			}
			q.Columns = append(q.Columns, strings.ToLower(t.text))
			if p.peek().kind == tokSymbol && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	}

	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	tbl := p.next()
	if tbl.kind != tokIdent {
		return nil, fmt.Errorf("vdb: expected table name, found %q", clip(tbl.text))
	}
	q.Table = strings.ToLower(tbl.text)

	if p.kw("where") {
		for {
			if err := p.parseCond(q); err != nil {
				return nil, err
			}
			if p.kw("and") {
				continue
			}
			break
		}
	}

	if p.kw("limit") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("vdb: expected LIMIT count, found %q", clip(t.text))
		}
		limit, err := strconv.Atoi(t.text)
		if err != nil || limit <= 0 {
			return nil, fmt.Errorf("vdb: invalid LIMIT %q", clip(t.text))
		}
		q.Limit = limit
	}

	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("vdb: trailing input starting at %q", clip(p.peek().text))
	}
	if len(q.Meta) == 0 && len(q.Content) == 0 && !q.Star && !q.CountStar && len(q.Columns) == 0 {
		return nil, fmt.Errorf("vdb: empty query")
	}
	return q, nil
}

func (p *parser) parseCond(q *Query) error {
	negated := false
	if p.kw("not") {
		negated = true
	}
	t := p.next()
	if t.kind != tokIdent {
		return fmt.Errorf("vdb: expected condition, found %q", clip(t.text))
	}
	name := strings.ToLower(t.text)
	if name == "contains_object" {
		if err := p.expectSym("("); err != nil {
			return err
		}
		arg := p.next()
		if arg.kind != tokString && arg.kind != tokIdent {
			return fmt.Errorf("vdb: contains_object expects a category, found %q", clip(arg.text))
		}
		if err := p.expectSym(")"); err != nil {
			return err
		}
		q.Content = append(q.Content, ContentCond{Category: strings.ToLower(arg.text), Negated: negated})
		return nil
	}
	if negated {
		return fmt.Errorf("vdb: NOT is only supported on contains_object")
	}
	op := p.next()
	if op.kind != tokSymbol {
		return fmt.Errorf("vdb: expected comparison operator after %q, found %q", clip(name), clip(op.text))
	}
	var cmp CompareOp
	switch op.text {
	case "=", "!=", "<", "<=", ">", ">=":
		cmp = CompareOp(op.text)
	default:
		return fmt.Errorf("vdb: unknown operator %q", op.text)
	}
	val := p.next()
	var v Value
	switch val.kind {
	case tokString:
		v = Value{IsString: true, Str: val.text}
	case tokNumber:
		n, err := strconv.ParseInt(val.text, 10, 64)
		if err != nil {
			return fmt.Errorf("vdb: bad number %q", clip(val.text))
		}
		v = Value{Int: n}
	default:
		return fmt.Errorf("vdb: expected literal, found %q", clip(val.text))
	}
	q.Meta = append(q.Meta, MetaCond{Column: name, Op: cmp, Val: v})
	return nil
}
