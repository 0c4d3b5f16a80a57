package engine

import (
	"fmt"
	"strconv"
	"strings"

	"scanraw/internal/schema"
)

// ParseSQL parses and binds a query in the SQL subset the system supports:
//
//	SELECT item [, item...]
//	FROM name
//	[WHERE predicate]
//	[GROUP BY expr [, expr...]]
//	[LIMIT n]
//
// where item is an expression, optionally aggregated with
// SUM/COUNT/MIN/MAX/AVG and optionally aliased with AS. Expressions support
// + - * / %, comparisons, AND/OR/NOT, LIKE/NOT LIKE, parentheses, integer,
// float and 'string' literals, and column references resolved against sch.
// Parentheses, NOT and unary minus nest at most maxNesting deep.
func ParseSQL(sql string, sch *schema.Schema) (*Query, error) {
	p := &sqlParser{src: sql, sch: sch}
	q, err := p.parseQuery()
	// A lexical error anywhere in the text takes precedence over a parse
	// error before it, as if the text were lexed in full first. Lexing is on
	// demand, so the rest of the text is checked without keeping its tokens.
	if err != nil && p.lexErr == nil {
		for off := p.off; p.lexErr == nil; {
			var t token
			if t, off, p.lexErr = lexOne(sql, off); t.kind == tokEOF {
				break
			}
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// FromTable scans the SQL text for the FROM table name, so a caller that
// serves several tables can pick the schema ParseSQL binds against (the
// real parse happens with that schema).
func FromTable(sql string) (string, error) {
	fields := strings.Fields(sql)
	for i, f := range fields {
		if strings.EqualFold(f, "FROM") && i+1 < len(fields) {
			return strings.Trim(fields[i+1], ","), nil
		}
	}
	return "", fmt.Errorf("query has no FROM clause")
}

type tokKind uint8

const (
	tokIdent tokKind = iota
	tokNumber
	tokString
	tokOp // punctuation and operators
	tokEOF
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// lexOne lexes the token starting at or after offset i (past any blanks)
// and returns it with the offset just past it; at the end of s the token is
// tokEOF. On a lexical error the offset is where the bad token starts.
func lexOne(s string, i int) (token, int, error) {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	if i == len(s) {
		return token{tokEOF, "", len(s)}, i, nil
	}
	c := s[i]
	switch {
	case isIdentStart(c):
		j := i + 1
		for j < len(s) && isIdentPart(s[j]) {
			j++
		}
		return token{tokIdent, s[i:j], i}, j, nil
	case c >= '0' && c <= '9' || (c == '.' && i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9'):
		j := i
		seenDot := false
		for j < len(s) && (s[j] >= '0' && s[j] <= '9' || (s[j] == '.' && !seenDot)) {
			if s[j] == '.' {
				seenDot = true
			}
			j++
		}
		return token{tokNumber, s[i:j], i}, j, nil
	case c == '\'':
		j := i + 1
		var b strings.Builder
		for {
			if j >= len(s) {
				return token{}, i, fmt.Errorf("sql: unterminated string at offset %d", i)
			}
			if s[j] == '\'' {
				if j+1 < len(s) && s[j+1] == '\'' { // escaped quote
					b.WriteByte('\'')
					j += 2
					continue
				}
				break
			}
			b.WriteByte(s[j])
			j++
		}
		return token{tokString, b.String(), i}, j + 1, nil
	case strings.ContainsRune("+-*/%(),=", rune(c)):
		return token{tokOp, s[i : i+1], i}, i + 1, nil
	case c == '<':
		if i+1 < len(s) && (s[i+1] == '=' || s[i+1] == '>') {
			return token{tokOp, s[i : i+2], i}, i + 2, nil
		}
		return token{tokOp, "<", i}, i + 1, nil
	case c == '>':
		if i+1 < len(s) && s[i+1] == '=' {
			return token{tokOp, ">=", i}, i + 2, nil
		}
		return token{tokOp, ">", i}, i + 1, nil
	case c == '!':
		if i+1 < len(s) && s[i+1] == '=' {
			return token{tokOp, "!=", i}, i + 2, nil
		}
		return token{}, i, fmt.Errorf("sql: unexpected '!' at offset %d", i)
	}
	return token{}, i, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

// sqlParser lexes on demand: a token is lexed when the parser first looks
// at it, so a parse that fails early — at the nesting bound, say — has cost
// only the tokens before the failure, whatever the length of the text. The
// tokens lexed so far stay, for save and restore.
type sqlParser struct {
	src    string
	off    int     // offset in src of the next token to lex
	lexErr error   // the first lexical error; the tokens end there
	toks   []token // lexed so far
	pos    int     // the parser's position in toks
	sch    *schema.Schema
	depth  int // open nesting levels; see nest
}

// maxNesting bounds how deeply an expression may nest parentheses, NOT and
// unary minus. Each level is a recursion of the parser (and later of every
// walk over the tree), so without a bound a 1 MiB request of nothing but
// parentheses costs a goroutine stack of about a gigabyte.
const maxNesting = 256

// nest enters one nesting level opened by token t, failing past maxNesting
// before the recursion it guards begins. The caller leaves the level with
// p.depth-- once the nested operand is parsed.
func (p *sqlParser) nest(t token) error {
	if p.depth++; p.depth > maxNesting {
		return fmt.Errorf("sql: expression nested deeper than %d levels at offset %d", maxNesting, t.pos)
	}
	return nil
}

func (p *sqlParser) peek() token {
	for p.pos >= len(p.toks) {
		t := token{tokEOF, "", len(p.src)}
		if p.lexErr == nil {
			var err error
			if t, p.off, err = lexOne(p.src, p.off); err != nil {
				p.lexErr, t = err, token{tokEOF, "", p.off}
			}
		}
		p.toks = append(p.toks, t)
	}
	return p.toks[p.pos]
}

func (p *sqlParser) next() token   { t := p.peek(); p.pos++; return t }
func (p *sqlParser) save() int     { return p.pos }
func (p *sqlParser) restore(m int) { p.pos = m }

// matchKw consumes the next token when it is the given keyword (case
// insensitive).
func (p *sqlParser) matchKw(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

// peekOp reports whether the next token is the given operator.
func (p *sqlParser) peekOp(op string) bool {
	t := p.peek()
	return t.kind == tokOp && t.text == op
}

// matchOp consumes the next token when it is the given operator.
func (p *sqlParser) matchOp(op string) bool {
	if p.peekOp(op) {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) expectKw(kw string) error {
	if !p.matchKw(kw) {
		t := p.peek()
		return fmt.Errorf("sql: expected %s at offset %d, found %q", kw, t.pos, t.text)
	}
	return nil
}

func (p *sqlParser) expectOp(op string) error {
	if !p.matchOp(op) {
		t := p.peek()
		return fmt.Errorf("sql: expected %q at offset %d, found %q", op, t.pos, t.text)
	}
	return nil
}

var aggNames = map[string]AggFunc{
	"SUM": AggSum, "COUNT": AggCount, "MIN": AggMin, "MAX": AggMax, "AVG": AggAvg,
}

// reserved keywords that terminate expressions / cannot be column names in
// expression position.
var reserved = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "HAVING": true, "LIMIT": true, "AS": true, "AND": true,
	"OR": true, "NOT": true, "LIKE": true,
}

func (p *sqlParser) parseQuery() (*Query, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{}
	for {
		// SELECT * expands to every schema column, in order.
		if p.matchOp("*") {
			for _, c := range p.sch.Columns() {
				col, err := NewCol(p.sch, c.Name)
				if err != nil {
					return nil, err
				}
				q.Items = append(q.Items, SelectItem{Expr: col})
			}
		} else {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			q.Items = append(q.Items, item)
		}
		if !p.matchOp(",") {
			break
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("sql: expected table name at offset %d", t.pos)
	}
	q.From = t.text
	if p.matchKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	if p.matchKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, e)
			if !p.matchOp(",") {
				break
			}
		}
	}
	if p.matchKw("HAVING") {
		for {
			h, err := p.parseHavingClause(q.Items)
			if err != nil {
				return nil, err
			}
			q.Having = append(q.Having, h)
			if !p.matchKw("AND") {
				break
			}
		}
	}
	if p.matchKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			key, err := p.parseOrderKey(q.Items)
			if err != nil {
				return nil, err
			}
			q.OrderBy = append(q.OrderBy, key)
			if !p.matchOp(",") {
				break
			}
		}
	}
	if p.matchKw("LIMIT") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("sql: expected number after LIMIT at offset %d", t.pos)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sql: invalid LIMIT %q", t.text)
		}
		q.Limit = n
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("sql: trailing input at offset %d: %q", t.pos, t.text)
	}
	return q, nil
}

// parseHavingClause parses one HAVING conjunct of the supported subset:
// <select-list column or 1-based ordinal> <cmp> <literal>.
func (p *sqlParser) parseHavingClause(items []SelectItem) (HavingClause, error) {
	var h HavingClause
	t := p.next()
	var col int
	var err error
	switch t.kind {
	case tokIdent:
		if reserved[strings.ToUpper(t.text)] {
			return h, fmt.Errorf("sql: unexpected keyword %q in HAVING at offset %d", t.text, t.pos)
		}
		col, err = resolveOrderKey(items, "HAVING", t.text, 0, p.peekOp("("))
	case tokNumber:
		n, convErr := strconv.Atoi(t.text)
		if convErr != nil {
			return h, fmt.Errorf("sql: invalid HAVING position %q", t.text)
		}
		col, err = resolveOrderKey(items, "HAVING", "", n, false)
	default:
		return h, fmt.Errorf("sql: HAVING expects a select-list column at offset %d", t.pos)
	}
	if err != nil {
		return h, err
	}
	h.Column = col
	op := p.next()
	cmp, ok := cmpOps[op.text]
	if op.kind != tokOp || !ok {
		return h, fmt.Errorf("sql: HAVING expects a comparison at offset %d", op.pos)
	}
	h.Op = cmp
	lit := p.next()
	switch lit.kind {
	case tokNumber:
		if strings.Contains(lit.text, ".") {
			f, err := strconv.ParseFloat(lit.text, 64)
			if err != nil {
				return h, fmt.Errorf("sql: invalid HAVING literal %q", lit.text)
			}
			h.Value = FloatValue(f)
		} else {
			n, err := strconv.ParseInt(lit.text, 10, 64)
			if err != nil {
				return h, fmt.Errorf("sql: invalid HAVING literal %q", lit.text)
			}
			h.Value = IntValue(n)
		}
	case tokString:
		h.Value = StrValue(lit.text)
	default:
		return h, fmt.Errorf("sql: HAVING expects a literal at offset %d", lit.pos)
	}
	return h, nil
}

// parseOrderKey parses one ORDER BY key: a select-list alias/column name
// or a 1-based ordinal, optionally followed by ASC or DESC.
func (p *sqlParser) parseOrderKey(items []SelectItem) (OrderItem, error) {
	var key OrderItem
	t := p.next()
	var col int
	var err error
	switch t.kind {
	case tokIdent:
		if reserved[strings.ToUpper(t.text)] {
			return key, fmt.Errorf("sql: unexpected keyword %q in ORDER BY at offset %d", t.text, t.pos)
		}
		col, err = resolveOrderKey(items, "ORDER BY", t.text, 0, p.peekOp("("))
	case tokNumber:
		n, convErr := strconv.Atoi(t.text)
		if convErr != nil {
			return key, fmt.Errorf("sql: invalid ORDER BY position %q", t.text)
		}
		col, err = resolveOrderKey(items, "ORDER BY", "", n, false)
	default:
		return key, fmt.Errorf("sql: expected column or position in ORDER BY at offset %d", t.pos)
	}
	if err != nil {
		return key, err
	}
	key.Column = col
	if p.matchKw("DESC") {
		key.Desc = true
	} else {
		p.matchKw("ASC") // optional, the default
	}
	return key, nil
}

func (p *sqlParser) parseSelectItem() (SelectItem, error) {
	var it SelectItem
	// Aggregate function?
	t := p.peek()
	if t.kind == tokIdent {
		if f, ok := aggNames[strings.ToUpper(t.text)]; ok {
			mark := p.save()
			p.next()
			if p.matchOp("(") {
				it.Agg = f
				if f == AggCount && p.matchOp("*") {
					// COUNT(*)
				} else {
					e, err := p.parseExpr()
					if err != nil {
						return it, err
					}
					it.Expr = e
				}
				if err := p.expectOp(")"); err != nil {
					return it, err
				}
			} else {
				p.restore(mark) // a column that happens to be named SUM etc.
			}
		}
	}
	if it.Agg == AggNone {
		e, err := p.parseExpr()
		if err != nil {
			return it, err
		}
		it.Expr = e
	}
	if p.matchKw("AS") {
		t := p.next()
		if t.kind != tokIdent {
			return it, fmt.Errorf("sql: expected alias after AS at offset %d", t.pos)
		}
		it.Alias = t.text
	}
	return it, nil
}

// Expression grammar (highest binding last):
//
//	expr   := and (OR and)*
//	and    := not (AND not)*
//	not    := NOT not | cmp
//	cmp    := add (cmpOp add | [NOT] LIKE string)?
//	add    := mul ((+|-) mul)*
//	mul    := unary ((*|/|%) unary)*
//	unary  := - unary | primary
//	primary:= number | string | column | ( expr )
func (p *sqlParser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *sqlParser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.matchKw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l, err = NewLogic(OpOr, l, r)
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (p *sqlParser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.matchKw("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l, err = NewLogic(OpAnd, l, r)
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (p *sqlParser) parseNot() (Expr, error) {
	if t := p.peek(); p.matchKw("NOT") {
		if err := p.nest(t); err != nil {
			return nil, err
		}
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		p.depth--
		return NewLogic(OpNot, e, nil)
	}
	return p.parseCmp()
}

var cmpOps = map[string]CmpOp{
	"=": OpEq, "!=": OpNe, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *sqlParser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokOp {
		if op, ok := cmpOps[t.text]; ok {
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return NewCmp(op, l, r)
		}
	}
	negate := false
	mark := p.save()
	if p.matchKw("NOT") {
		if !p.matchKw("LIKE") {
			p.restore(mark)
			return l, nil
		}
		negate = true
	} else if !p.matchKw("LIKE") {
		return l, nil
	}
	t = p.next()
	if t.kind != tokString {
		return nil, fmt.Errorf("sql: LIKE expects a string pattern at offset %d", t.pos)
	}
	return NewLike(l, t.text, negate)
}

func (p *sqlParser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op ArithOp
		switch {
		case p.matchOp("+"):
			op = OpAdd
		case p.matchOp("-"):
			op = OpSub
		default:
			return l, nil
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l, err = NewArith(op, l, r)
		if err != nil {
			return nil, err
		}
	}
}

func (p *sqlParser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op ArithOp
		switch {
		case p.matchOp("*"):
			op = OpMul
		case p.matchOp("/"):
			op = OpDiv
		case p.matchOp("%"):
			op = OpMod
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l, err = NewArith(op, l, r)
		if err != nil {
			return nil, err
		}
	}
}

func (p *sqlParser) parseUnary() (Expr, error) {
	if t := p.peek(); p.matchOp("-") {
		if err := p.nest(t); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.depth--
		if c, ok := e.(*Const); ok {
			switch c.Typ {
			case schema.Int64:
				return ConstInt(-c.Int), nil
			case schema.Float64:
				return ConstFloat(-c.Float), nil
			}
		}
		return NewArith(OpSub, ConstInt(0), e)
	}
	return p.parsePrimary()
}

func (p *sqlParser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: invalid number %q at offset %d", t.text, t.pos)
			}
			return ConstFloat(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: invalid number %q at offset %d", t.text, t.pos)
		}
		return ConstInt(n), nil
	case tokString:
		return ConstStr(t.text), nil
	case tokIdent:
		if reserved[strings.ToUpper(t.text)] {
			return nil, fmt.Errorf("sql: unexpected keyword %q at offset %d", t.text, t.pos)
		}
		return NewCol(p.sch, t.text)
	case tokOp:
		if t.text == "(" {
			if err := p.nest(t); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			p.depth--
			return e, nil
		}
	}
	return nil, fmt.Errorf("sql: unexpected token %q at offset %d", t.text, t.pos)
}

// SumAllColumns builds the paper's micro-benchmark query
// SELECT SUM(c_{i1} + ... + c_{iK}) FROM <table> over the listed column
// ordinals of sch.
func SumAllColumns(sch *schema.Schema, table string, cols []int) (*Query, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("engine: SumAllColumns needs at least one column")
	}
	var e Expr
	for _, c := range cols {
		if c < 0 || c >= sch.NumColumns() {
			return nil, fmt.Errorf("engine: column ordinal %d out of range", c)
		}
		col := &Col{Idx: c, Name: sch.Column(c).Name, Typ: sch.Column(c).Type}
		if e == nil {
			e = col
			continue
		}
		var err error
		e, err = NewArith(OpAdd, e, col)
		if err != nil {
			return nil, err
		}
	}
	q := &Query{
		Items: []SelectItem{{Agg: AggSum, Expr: e, Alias: "total"}},
		From:  table,
	}
	return q, q.Validate()
}
