"""Recursive-descent SQL parser for the subset the paper's workloads use.

Supported statements: SELECT (with CTEs, joins, grouping, ordering,
DISTINCT, correlated and quantified subqueries), INSERT, UPDATE, DELETE,
CREATE TABLE [AS], CREATE INDEX … USING …, DROP TABLE/INDEX, EXPLAIN.
"""

from __future__ import annotations


from ..errors import ParserError
from . import ast
from .lexer import Token, tokenize

_RESERVED = {
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "HAVING", "LIMIT",
    "OFFSET", "ON", "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "CROSS",
    "AND", "OR", "NOT", "AS", "BY", "WITH", "UNION", "EXCEPT",
    "INTERSECT", "WHEN", "THEN", "ELSE", "END", "CASE", "USING",
    "DISTINCT", "ALL", "ASC", "DESC", "NULLS", "IN", "IS", "BETWEEN",
    "LIKE", "ILIKE", "EXISTS", "ANY", "SOME", "SET", "VALUES", "INTO",
}

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_CUSTOM_OPS = {"&&", "@>", "<@", "<<", ">>", "-|-"}


class Parser:
    def __init__(self, sql: str):
        self.tokens = tokenize(sql)
        self.pos = 0

    # -- token helpers -----------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def accept_keyword(self, *words: str) -> bool:
        """Consume the given keyword sequence if present."""
        for i, word in enumerate(words):
            token = self.peek(i)
            if token.kind != "ident" or token.upper != word:
                return False
        self.pos += len(words)
        return True

    def expect_keyword(self, word: str) -> None:
        token = self.advance()
        if token.kind != "ident" or token.upper != word:
            raise ParserError(f"expected {word}, got {token.text!r}")

    def accept_op(self, op: str) -> bool:
        token = self.peek()
        if token.kind == "op" and token.text == op:
            self.pos += 1
            return True
        return False

    def expect_op(self, op: str) -> None:
        token = self.advance()
        if token.kind != "op" or token.text != op:
            raise ParserError(f"expected {op!r}, got {token.text!r}")

    def at_keyword(self, word: str) -> bool:
        token = self.peek()
        return token.kind == "ident" and token.upper == word

    def expect_ident(self) -> str:
        token = self.advance()
        if token.kind not in ("ident", "qident"):
            raise ParserError(f"expected identifier, got {token.text!r}")
        return token.text

    # -- entry points --------------------------------------------------------------

    def parse_statements(self) -> list[ast.Statement]:
        statements: list[ast.Statement] = []
        while self.peek().kind != "eof":
            statements.append(self.parse_statement())
            while self.accept_op(";"):
                pass
        return statements

    def parse_statement(self) -> ast.Statement:
        token = self.peek()
        if token.kind != "ident":
            raise ParserError(f"unexpected token {token.text!r}")
        word = token.upper
        if word in ("SELECT", "WITH"):
            return self.parse_select()
        if word == "CREATE":
            return self._parse_create()
        if word == "INSERT":
            return self._parse_insert()
        if word == "UPDATE":
            return self._parse_update()
        if word == "DELETE":
            return self._parse_delete()
        if word == "DROP":
            return self._parse_drop()
        if word == "EXPLAIN":
            self.advance()
            analyze = bool(self.accept_keyword("ANALYZE"))
            return ast.ExplainStatement(self.parse_statement(), analyze)
        if word == "ANALYZE":
            return self._parse_analyze()
        if word == "SET":
            return self._parse_set()
        if word == "SHOW":
            return self._parse_show()
        if word == "ATTACH":
            return self._parse_attach()
        if word == "CHECKPOINT":
            return self._parse_checkpoint()
        raise ParserError(f"unsupported statement {token.text!r}")

    def _parse_attach(self) -> ast.AttachStatement:
        self.expect_keyword("ATTACH")
        self.accept_keyword("DATABASE")
        return ast.AttachStatement(self._expect_string("ATTACH"))

    def _parse_checkpoint(self) -> ast.CheckpointStatement:
        self.expect_keyword("CHECKPOINT")
        path = None
        if self.peek().kind == "string":
            path = self._expect_string("CHECKPOINT")
        return ast.CheckpointStatement(path)

    def _expect_string(self, context: str) -> str:
        token = self.advance()
        if token.kind != "string":
            raise ParserError(
                f"{context} expects a quoted file path, "
                f"got {token.text!r}"
            )
        return token.text

    def _parse_analyze(self) -> ast.AnalyzeStatement:
        self.expect_keyword("ANALYZE")
        table = None
        if self.peek().kind == "ident":
            table = self.expect_ident()
        return ast.AnalyzeStatement(table)

    def _parse_set(self) -> ast.SetStatement:
        self.expect_keyword("SET")
        name = self.expect_ident()
        if not self.accept_op("="):
            self.expect_keyword("TO")
        return ast.SetStatement(name, self.parse_expression())

    def _parse_show(self) -> ast.ShowStatement:
        self.expect_keyword("SHOW")
        return ast.ShowStatement(self.expect_ident())

    # -- SELECT ---------------------------------------------------------------------

    def parse_select(self) -> ast.SelectStatement:
        ctes: list[ast.CommonTableExpr] = []
        if self.accept_keyword("WITH"):
            while True:
                name = self.expect_ident()
                column_names = None
                if self.accept_op("("):
                    column_names = [self.expect_ident()]
                    while self.accept_op(","):
                        column_names.append(self.expect_ident())
                    self.expect_op(")")
                self.expect_keyword("AS")
                self.expect_op("(")
                query = self.parse_select()
                self.expect_op(")")
                ctes.append(ast.CommonTableExpr(name, column_names, query))
                if not self.accept_op(","):
                    break
        stmt: "ast.SelectStatement | ast.CompoundSelect"
        stmt = self._parse_select_body()
        while True:
            if self.accept_keyword("UNION"):
                kind = "union"
            elif self.accept_keyword("EXCEPT"):
                kind = "except"
            elif self.accept_keyword("INTERSECT"):
                kind = "intersect"
            else:
                break
            all_flag = bool(self.accept_keyword("ALL"))
            self.accept_keyword("DISTINCT")
            right = self._parse_select_body()
            stmt = ast.CompoundSelect(stmt, right, kind, all_flag)
        order_by, limit, offset = self._parse_order_limit()
        stmt.order_by = order_by or stmt.order_by
        if limit is not None:
            stmt.limit = limit
        if offset is not None:
            stmt.offset = offset
        stmt.ctes = ctes
        return stmt

    def _parse_order_limit(self):
        order_by: list[ast.OrderItem] = []
        limit = offset = None
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self.accept_op(","):
                order_by.append(self._parse_order_item())
        if self.accept_keyword("LIMIT"):
            limit = self.parse_expression()
        if self.accept_keyword("OFFSET"):
            offset = self.parse_expression()
        return order_by, limit, offset

    def _parse_select_body(self) -> ast.SelectStatement:
        self.expect_keyword("SELECT")
        stmt = ast.SelectStatement()
        if self.accept_keyword("DISTINCT"):
            stmt.distinct = True
        elif self.accept_keyword("ALL"):
            pass
        stmt.select_items.append(self._parse_select_item())
        while self.accept_op(","):
            # Tolerate a trailing comma before FROM (appears in the paper's
            # use-case query 6).
            if self.at_keyword("FROM"):
                break
            stmt.select_items.append(self._parse_select_item())
        if self.accept_keyword("FROM"):
            stmt.from_items.append(self._parse_table_ref())
            while self.accept_op(","):
                stmt.from_items.append(self._parse_table_ref())
        if self.accept_keyword("WHERE"):
            stmt.where = self.parse_expression()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            stmt.group_by.append(self.parse_expression())
            while self.accept_op(","):
                stmt.group_by.append(self.parse_expression())
        if self.accept_keyword("HAVING"):
            stmt.having = self.parse_expression()
        # ORDER BY / LIMIT are parsed by the caller so that compound
        # (UNION/EXCEPT/INTERSECT) selects attach them to the whole.
        return stmt

    def _parse_select_item(self) -> ast.SelectItem:
        if self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            return ast.SelectItem(ast.Star())
        expr = self.parse_expression()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.peek().kind == "qident" or (
            self.peek().kind == "ident" and self.peek().upper not in _RESERVED
        ):
            alias = self.advance().text
        return ast.SelectItem(expr, alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expression()
        ascending = True
        if self.accept_keyword("ASC"):
            ascending = True
        elif self.accept_keyword("DESC"):
            ascending = False
        nulls_first = None
        if self.accept_keyword("NULLS"):
            if self.accept_keyword("FIRST"):
                nulls_first = True
            elif self.accept_keyword("LAST"):
                nulls_first = False
            else:
                raise ParserError("expected FIRST or LAST after NULLS")
        return ast.OrderItem(expr, ascending, nulls_first)

    # -- FROM items --------------------------------------------------------------------

    def _parse_table_ref(self) -> ast.TableRef:
        ref = self._parse_table_primary()
        while True:
            join_type = None
            if self.accept_keyword("INNER", "JOIN") or self.accept_keyword(
                "JOIN"
            ):
                join_type = "inner"
            elif self.accept_keyword("LEFT", "OUTER", "JOIN") or (
                self.accept_keyword("LEFT", "JOIN")
            ):
                join_type = "left"
            elif self.accept_keyword("CROSS", "JOIN"):
                join_type = "cross"
            else:
                return ref
            right = self._parse_table_primary()
            condition = None
            if join_type != "cross":
                self.expect_keyword("ON")
                condition = self.parse_expression()
            ref = ast.JoinRef(ref, right, join_type, condition)

    def _parse_table_primary(self) -> ast.TableRef:
        if self.accept_op("("):
            query = self.parse_select()
            self.expect_op(")")
            alias, column_aliases = self._parse_table_alias(required=True)
            return ast.SubqueryRef(query, alias, column_aliases)
        name = self.expect_ident()
        if self.peek().kind == "op" and self.peek().text == "(":
            # Table function, e.g. generate_series(1, 1000) AS t(i)
            self.advance()
            args: list[ast.Expr] = []
            if not self.accept_op(")"):
                args.append(self.parse_expression())
                while self.accept_op(","):
                    args.append(self.parse_expression())
                self.expect_op(")")
            alias, column_aliases = self._parse_table_alias(required=False)
            return ast.TableFunctionRef(name, args, alias, column_aliases)
        alias, _ = self._parse_table_alias(required=False)
        return ast.BaseTableRef(name, alias)

    def _parse_table_alias(
        self, required: bool
    ) -> tuple[str | None, list[str] | None]:
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.peek().kind == "qident" or (
            self.peek().kind == "ident" and self.peek().upper not in _RESERVED
        ):
            alias = self.advance().text
        if alias is None and required:
            raise ParserError("subquery in FROM requires an alias")
        column_aliases = None
        if alias is not None and self.peek().text == "(" and self._looks_like_column_aliases():
            self.advance()
            column_aliases = [self.expect_ident()]
            while self.accept_op(","):
                column_aliases.append(self.expect_ident())
            self.expect_op(")")
        return alias, column_aliases

    def _looks_like_column_aliases(self) -> bool:
        # alias(col [, col]*) — a '(' followed by identifiers and commas only.
        offset = 1
        if self.peek(offset).kind not in ("ident", "qident"):
            return False
        while True:
            if self.peek(offset).kind not in ("ident", "qident"):
                return False
            offset += 1
            token = self.peek(offset)
            if token.kind == "op" and token.text == ",":
                offset += 1
                continue
            if token.kind == "op" and token.text == ")":
                return True
            return False

    # -- other statements ---------------------------------------------------------------

    def _parse_create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        or_replace = False
        if self.accept_keyword("OR"):
            self.expect_keyword("REPLACE")
            or_replace = True
        if self.accept_keyword("TABLE"):
            if_not_exists = False
            if self.accept_keyword("IF"):
                self.expect_keyword("NOT")
                self.expect_keyword("EXISTS")
                if_not_exists = True
            name = self.expect_ident()
            if self.accept_keyword("AS"):
                query = self.parse_select()
                return ast.CreateTableStatement(
                    name, [], query, or_replace, if_not_exists
                )
            self.expect_op("(")
            columns = [self._parse_column_def()]
            while self.accept_op(","):
                columns.append(self._parse_column_def())
            self.expect_op(")")
            return ast.CreateTableStatement(
                name, columns, None, or_replace, if_not_exists
            )
        if self.accept_keyword("INDEX"):
            name = self.expect_ident()
            self.expect_keyword("ON")
            table = self.expect_ident()
            using = "BTREE"
            if self.accept_keyword("USING"):
                using = self.expect_ident()
            self.expect_op("(")
            column = self.expect_ident()
            self.expect_op(")")
            return ast.CreateIndexStatement(name, table, using, column)
        raise ParserError("expected TABLE or INDEX after CREATE")

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self.expect_ident()
        type_name = self._parse_type_name()
        return ast.ColumnDef(name, type_name)

    def _parse_type_name(self) -> str:
        parts = [self.expect_ident()]
        # Multi-word types: DOUBLE PRECISION, TIMESTAMP WITH TIME ZONE.
        if parts[0].upper() == "DOUBLE" and self.at_keyword("PRECISION"):
            self.advance()
            parts.append("PRECISION")
        if parts[0].upper() == "TIMESTAMP" and self.at_keyword("WITH"):
            self.advance()
            self.expect_keyword("TIME")
            self.expect_keyword("ZONE")
            return "TIMESTAMPTZ"
        name = " ".join(parts)
        if self.peek().text == "(":
            # type modifiers, e.g. DECIMAL(10, 2) — parsed and ignored.
            self.advance()
            depth = 1
            mods = []
            while depth:
                token = self.advance()
                if token.kind == "eof":
                    raise ParserError("unterminated type modifier")
                if token.text == "(":
                    depth += 1
                elif token.text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                mods.append(token.text)
            name = f"{name}({','.join(mods)})"
        return name

    def _parse_insert(self) -> ast.InsertStatement:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident()
        columns = None
        if self.peek().text == "(" and self._looks_like_column_aliases():
            self.advance()
            columns = [self.expect_ident()]
            while self.accept_op(","):
                columns.append(self.expect_ident())
            self.expect_op(")")
        if self.accept_keyword("VALUES"):
            rows: list[list[ast.Expr]] = []
            while True:
                self.expect_op("(")
                row = [self.parse_expression()]
                while self.accept_op(","):
                    row.append(self.parse_expression())
                self.expect_op(")")
                rows.append(row)
                if not self.accept_op(","):
                    break
            return ast.InsertStatement(table, columns, None, rows)
        query = self.parse_select()
        return ast.InsertStatement(table, columns, query, None)

    def _parse_update(self) -> ast.UpdateStatement:
        self.expect_keyword("UPDATE")
        table = self.expect_ident()
        self.expect_keyword("SET")
        assignments = []
        while True:
            column = self.expect_ident()
            self.expect_op("=")
            assignments.append((column, self.parse_expression()))
            if not self.accept_op(","):
                break
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        return ast.UpdateStatement(table, assignments, where)

    def _parse_delete(self) -> ast.DeleteStatement:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        return ast.DeleteStatement(table, where)

    def _parse_drop(self) -> ast.DropStatement:
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            kind = "table"
        elif self.accept_keyword("INDEX"):
            kind = "index"
        else:
            raise ParserError("expected TABLE or INDEX after DROP")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        name = self.expect_ident()
        return ast.DropStatement(kind, name, if_exists)

    # -- expressions ----------------------------------------------------------------------
    #
    # Precedence (low to high): OR < AND < NOT < comparison/IS/IN/BETWEEN/
    # LIKE < custom ops (&&, @>, …) < || < +,- < *,/,% < unary < ::cast.

    def parse_expression(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self.accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self.accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_custom_op()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in _COMPARISON_OPS:
                op = self.advance().text
                if op == "!=":
                    op = "<>"
                if self.at_keyword("ALL") or self.at_keyword("ANY") or (
                    self.at_keyword("SOME")
                ):
                    quant = self.advance().upper
                    if quant == "SOME":
                        quant = "ANY"
                    self.expect_op("(")
                    query = self.parse_select()
                    self.expect_op(")")
                    left = ast.QuantifiedComparison(op, left, quant, query)
                else:
                    left = ast.BinaryOp(op, left, self._parse_custom_op())
                continue
            if token.kind == "ident":
                word = token.upper
                if word == "IS":
                    self.advance()
                    negated = bool(self.accept_keyword("NOT"))
                    self.expect_keyword("NULL")
                    left = ast.IsNull(left, negated)
                    continue
                if word == "NOT" and self.peek(1).kind == "ident" and (
                    self.peek(1).upper in ("IN", "BETWEEN", "LIKE", "ILIKE")
                ):
                    self.advance()
                    left = self._parse_postfix_predicate(left, negated=True)
                    continue
                if word in ("IN", "BETWEEN", "LIKE", "ILIKE"):
                    left = self._parse_postfix_predicate(left, negated=False)
                    continue
            break
        return left

    def _parse_postfix_predicate(self, left: ast.Expr, negated: bool) -> ast.Expr:
        token = self.advance()
        word = token.upper
        if word == "IN":
            self.expect_op("(")
            if self.at_keyword("SELECT") or self.at_keyword("WITH"):
                query = self.parse_select()
                self.expect_op(")")
                return ast.InSubquery(left, query, negated)
            items = [self.parse_expression()]
            while self.accept_op(","):
                items.append(self.parse_expression())
            self.expect_op(")")
            return ast.InList(left, items, negated)
        if word == "BETWEEN":
            low = self._parse_custom_op()
            self.expect_keyword("AND")
            high = self._parse_custom_op()
            return ast.Between(left, low, high, negated)
        if word in ("LIKE", "ILIKE"):
            pattern = self._parse_custom_op()
            return ast.Like(left, pattern, negated, word == "ILIKE")
        raise ParserError(f"unexpected predicate {word}")

    def _parse_custom_op(self) -> ast.Expr:
        left = self._parse_concat()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in _CUSTOM_OPS:
                op = self.advance().text
                left = ast.BinaryOp(op, left, self._parse_concat())
            else:
                return left

    def _parse_concat(self) -> ast.Expr:
        left = self._parse_additive()
        while self.accept_op("||"):
            left = ast.BinaryOp("||", left, self._parse_additive())
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in ("+", "-"):
                op = self.advance().text
                left = ast.BinaryOp(op, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in ("*", "/", "%"):
                op = self.advance().text
                left = ast.BinaryOp(op, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "op" and token.text in ("-", "+"):
            self.advance()
            operand = self._parse_unary()
            if token.text == "-":
                return ast.UnaryOp("-", operand)
            return operand
        return self._parse_cast()

    def _parse_cast(self) -> ast.Expr:
        expr = self._parse_primary()
        while self.accept_op("::"):
            expr = ast.Cast(expr, self._parse_type_name())
        return expr

    def _parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            text = token.text
            if "." in text or "e" in text or "E" in text:
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if token.kind == "string":
            self.advance()
            return ast.Literal(token.text)
        if token.kind == "op" and token.text == "(":
            self.advance()
            if self.at_keyword("SELECT") or self.at_keyword("WITH"):
                query = self.parse_select()
                self.expect_op(")")
                return ast.ScalarSubquery(query)
            expr = self.parse_expression()
            self.expect_op(")")
            return self._parse_postfix_cast(expr)
        if token.kind == "op" and token.text == "{":
            return self._parse_struct_literal()
        if token.kind == "op" and token.text == "*":
            self.advance()
            return ast.Star()
        if token.kind in ("ident", "qident"):
            return self._parse_identifier_expression()
        raise ParserError(f"unexpected token {token.text!r} in expression")

    def _parse_postfix_cast(self, expr: ast.Expr) -> ast.Expr:
        while self.accept_op("::"):
            expr = ast.Cast(expr, self._parse_type_name())
        return expr

    def _parse_struct_literal(self) -> ast.Expr:
        self.expect_op("{")
        fields: list[tuple[str, ast.Expr]] = []
        if not self.accept_op("}"):
            while True:
                key = self.expect_ident()
                self.expect_op(":")
                fields.append((key, self.parse_expression()))
                if not self.accept_op(","):
                    break
            self.expect_op("}")
        return ast.StructLiteral(fields)

    def _parse_identifier_expression(self) -> ast.Expr:
        token = self.advance()
        word = token.upper if token.kind == "ident" else None
        if word == "NULL":
            return ast.Literal(None)
        if word == "TRUE":
            return ast.Literal(True)
        if word == "FALSE":
            return ast.Literal(False)
        if word == "CASE":
            return self._parse_case()
        if word == "EXISTS" and self.peek().text == "(":
            self.advance()
            query = self.parse_select()
            self.expect_op(")")
            return ast.Exists(query)
        if word == "CAST" and self.peek().text == "(":
            self.advance()
            operand = self.parse_expression()
            self.expect_keyword("AS")
            type_name = self._parse_type_name()
            self.expect_op(")")
            return ast.Cast(operand, type_name)
        if word == "INTERVAL":
            nxt = self.peek()
            if nxt.kind == "string":
                self.advance()
                return ast.IntervalExpr(ast.Literal(nxt.text))
            if nxt.kind == "op" and nxt.text == "(":
                self.advance()
                inner = self.parse_expression()
                self.expect_op(")")
                return ast.IntervalExpr(inner)
        if word in ("DATE", "TIMESTAMP", "TIMESTAMPTZ") and (
            self.peek().kind == "string"
        ):
            literal = self.advance()
            return ast.Cast(ast.Literal(literal.text), word)
        if token.kind == "ident" and word in _RESERVED and not (
            self.peek().kind == "op" and self.peek().text == "("
        ):
            raise ParserError(
                f"unexpected keyword {word} in expression"
            )
        # Typed literal for user types, e.g. stbox 'STBOX X(...)',
        # tgeompoint '[...]', geomset 'SRID=...;{...}'.
        if token.kind == "ident" and self.peek().kind == "string":
            literal = self.advance()
            return ast.Cast(ast.Literal(literal.text), token.text)
        # Function call?
        if self.peek().kind == "op" and self.peek().text == "(":
            return self._parse_function_call(token.text)
        # Column reference (possibly qualified, possibly ending in .*)
        parts = [token.text]
        while self.accept_op("."):
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "*":
                self.advance()
                return ast.Star(qualifier=parts[-1])
            parts.append(self.expect_ident())
            if self.peek().text == "(" and self.peek().kind == "op":
                # schema-qualified function call; use last part as name
                return self._parse_function_call(parts[-1])
        return ast.ColumnRef(tuple(parts))

    def _parse_function_call(self, name: str) -> ast.Expr:
        self.expect_op("(")
        distinct = False
        if self.accept_keyword("DISTINCT"):
            distinct = True
        if self.peek().text == "*" and self.peek().kind == "op":
            self.advance()
            self.expect_op(")")
            return self._parse_postfix_cast(
                ast.FunctionCall(name, [], distinct, is_star=True)
            )
        args: list[ast.Expr] = []
        if not self.accept_op(")"):
            args.append(self.parse_expression())
            while self.accept_op(","):
                args.append(self.parse_expression())
            self.expect_op(")")
        return self._parse_postfix_cast(
            ast.FunctionCall(name, args, distinct)
        )

    def _parse_case(self) -> ast.Expr:
        operand = None
        if not self.at_keyword("WHEN"):
            operand = self.parse_expression()
        branches: list[tuple[ast.Expr, ast.Expr]] = []
        while self.accept_keyword("WHEN"):
            cond = self.parse_expression()
            self.expect_keyword("THEN")
            result = self.parse_expression()
            branches.append((cond, result))
        else_result = None
        if self.accept_keyword("ELSE"):
            else_result = self.parse_expression()
        self.expect_keyword("END")
        return ast.CaseExpr(operand, branches, else_result)


def parse_sql(sql: str) -> list[ast.Statement]:
    """Parse a SQL script into a list of statements."""
    return Parser(sql).parse_statements()


def parse_one(sql: str) -> ast.Statement:
    """Parse exactly one statement."""
    statements = parse_sql(sql)
    if len(statements) != 1:
        raise ParserError(f"expected one statement, got {len(statements)}")
    return statements[0]
