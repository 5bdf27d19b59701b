//! Recursive descent parser for OpenQASM 2.0.

use crate::ast::{Argument, GateBodyStmt, GateDef, Program, Statement};
use crate::error::{QasmError, Result};
use crate::expr::{BinOp, Expr, UnaryFn};
use crate::lexer::{Lexer, Token, TokenKind};

/// Deepest angle expression the parser accepts, counting binary operators,
/// signs, function calls and parentheses along one path (the service's
/// JSON nesting bound, `MAX_DEPTH`, is the same 64). Deeper input is a
/// positioned [`QasmError`], never a stack overflow in the parser or in
/// the recursive `eval`/`Display`/`Drop` over the tree.
pub const MAX_EXPR_DEPTH: usize = 64;

/// Recursive descent parser over a token stream.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    /// Lex `source` and prepare a parser.
    pub fn new(source: &str) -> Result<Self> {
        Ok(Self { tokens: Lexer::new(source).tokenize()?, pos: 0 })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, msg: impl Into<String>) -> QasmError {
        let t = self.peek();
        QasmError::new(msg, t.line, t.col)
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<Token> {
        if &self.peek().kind == kind {
            Ok(self.bump())
        } else {
            Err(self.err_here(format!("expected {what}, found {:?}", self.peek().kind)))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String> {
        match self.peek().kind.clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(self.err_here(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect_int(&mut self, what: &str) -> Result<u64> {
        match self.peek().kind.clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(v)
            }
            other => Err(self.err_here(format!("expected {what}, found {other:?}"))),
        }
    }

    /// Parse a full program (header plus statements until EOF).
    pub fn parse_program(&mut self) -> Result<Program> {
        self.expect(&TokenKind::OpenQasm, "'OPENQASM'")?;
        let version = match self.peek().kind.clone() {
            TokenKind::Real(v) => {
                self.bump();
                format!("{v:.1}")
            }
            TokenKind::Int(v) => {
                self.bump();
                format!("{v}.0")
            }
            _ => return Err(self.err_here("expected version number after OPENQASM")),
        };
        self.expect(&TokenKind::Semicolon, "';'")?;

        let mut statements = Vec::new();
        while self.peek().kind != TokenKind::Eof {
            statements.push(self.parse_statement()?);
        }
        Ok(Program { version, statements })
    }

    fn parse_statement(&mut self) -> Result<Statement> {
        match self.peek().kind.clone() {
            TokenKind::Include => {
                self.bump();
                let file = match self.peek().kind.clone() {
                    TokenKind::Str(s) => {
                        self.bump();
                        s
                    }
                    _ => return Err(self.err_here("expected string after include")),
                };
                self.expect(&TokenKind::Semicolon, "';'")?;
                Ok(Statement::Include(file))
            }
            TokenKind::QReg => {
                self.bump();
                let (name, size) = self.parse_reg_decl()?;
                Ok(Statement::QRegDecl { name, size })
            }
            TokenKind::CReg => {
                self.bump();
                let (name, size) = self.parse_reg_decl()?;
                Ok(Statement::CRegDecl { name, size })
            }
            TokenKind::Gate => self.parse_gate_def(false),
            TokenKind::Opaque => self.parse_gate_def(true),
            TokenKind::Measure => {
                self.bump();
                let qubit = self.parse_argument()?;
                self.expect(&TokenKind::Arrow, "'->'")?;
                let target = self.parse_argument()?;
                self.expect(&TokenKind::Semicolon, "';'")?;
                Ok(Statement::Measure { qubit, target })
            }
            TokenKind::Barrier => {
                self.bump();
                let args = self.parse_argument_list()?;
                self.expect(&TokenKind::Semicolon, "';'")?;
                Ok(Statement::Barrier(args))
            }
            TokenKind::Reset => {
                self.bump();
                let arg = self.parse_argument()?;
                self.expect(&TokenKind::Semicolon, "';'")?;
                Ok(Statement::Reset(arg))
            }
            TokenKind::If => {
                self.bump();
                self.expect(&TokenKind::LParen, "'('")?;
                let creg = self.expect_ident("classical register name")?;
                self.expect(&TokenKind::EqEq, "'=='")?;
                let value = self.expect_int("integer comparison value")?;
                self.expect(&TokenKind::RParen, "')'")?;
                let then = self.parse_statement()?;
                Ok(Statement::Conditional { creg, value, then: Box::new(then) })
            }
            TokenKind::Ident(_) | TokenKind::Pi => {
                let stmt = self.parse_gate_call()?;
                Ok(stmt)
            }
            other => Err(self.err_here(format!("unexpected token {other:?} at statement start"))),
        }
    }

    fn parse_reg_decl(&mut self) -> Result<(String, usize)> {
        let name = self.expect_ident("register name")?;
        self.expect(&TokenKind::LBracket, "'['")?;
        let size = self.expect_int("register size")? as usize;
        self.expect(&TokenKind::RBracket, "']'")?;
        self.expect(&TokenKind::Semicolon, "';'")?;
        Ok((name, size))
    }

    fn parse_gate_def(&mut self, opaque: bool) -> Result<Statement> {
        self.bump(); // gate | opaque
        let name = self.expect_ident("gate name")?;
        let mut params = Vec::new();
        if self.peek().kind == TokenKind::LParen {
            self.bump();
            if self.peek().kind != TokenKind::RParen {
                loop {
                    params.push(self.expect_ident("parameter name")?);
                    if self.peek().kind == TokenKind::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen, "')'")?;
        }
        let mut qubits = Vec::new();
        loop {
            qubits.push(self.expect_ident("qubit argument name")?);
            if self.peek().kind == TokenKind::Comma {
                self.bump();
            } else {
                break;
            }
        }
        let mut body = Vec::new();
        if opaque {
            self.expect(&TokenKind::Semicolon, "';'")?;
        } else {
            self.expect(&TokenKind::LBrace, "'{'")?;
            while self.peek().kind != TokenKind::RBrace {
                if self.peek().kind == TokenKind::Barrier {
                    // barriers inside gate bodies carry no scheduling meaning
                    // for our pipeline; consume through the semicolon.
                    while self.bump().kind != TokenKind::Semicolon {}
                    continue;
                }
                body.push(self.parse_gate_body_stmt()?);
            }
            self.expect(&TokenKind::RBrace, "'}'")?;
        }
        Ok(Statement::GateDef(GateDef { name, params, qubits, body, opaque }))
    }

    fn parse_gate_body_stmt(&mut self) -> Result<GateBodyStmt> {
        let name = self.expect_ident("gate name")?;
        let params = self.parse_params()?;
        let mut qubits = Vec::new();
        loop {
            qubits.push(self.expect_ident("qubit name")?);
            if self.peek().kind == TokenKind::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&TokenKind::Semicolon, "';'")?;
        Ok(GateBodyStmt { name, params, qubits })
    }

    fn parse_gate_call(&mut self) -> Result<Statement> {
        let name = self.expect_ident("gate name")?;
        let params = self.parse_params()?;
        let args = self.parse_argument_list()?;
        self.expect(&TokenKind::Semicolon, "';'")?;
        Ok(Statement::GateCall { name, params, args })
    }

    /// An optional parenthesized, comma-separated parameter list.
    fn parse_params(&mut self) -> Result<Vec<Expr>> {
        let mut params = Vec::new();
        if self.peek().kind == TokenKind::LParen {
            self.bump();
            if self.peek().kind != TokenKind::RParen {
                loop {
                    params.push(self.parse_expr(0)?.0);
                    if self.peek().kind == TokenKind::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen, "')'")?;
        }
        Ok(params)
    }

    fn parse_argument_list(&mut self) -> Result<Vec<Argument>> {
        let mut args = vec![self.parse_argument()?];
        while self.peek().kind == TokenKind::Comma {
            self.bump();
            args.push(self.parse_argument()?);
        }
        Ok(args)
    }

    fn parse_argument(&mut self) -> Result<Argument> {
        let name = self.expect_ident("register name")?;
        if self.peek().kind == TokenKind::LBracket {
            self.bump();
            let idx = self.expect_int("index")? as usize;
            self.expect(&TokenKind::RBracket, "']'")?;
            Ok(Argument::Indexed(name, idx))
        } else {
            Ok(Argument::Register(name))
        }
    }

    /// Expression grammar: term-level +/-, factor-level */÷, then unary and
    /// `^` (right-associative) at the highest precedence.
    ///
    /// Each expression function takes `outer`, the number of constructs
    /// (binary operators, signs, function calls, parentheses) enclosing the
    /// position it parses, and returns the expression with its depth: the
    /// most constructs on any path from its root down to a leaf. Before a
    /// construct opens, [`Self::nest`] checks that `outer + depth` stays
    /// within [`MAX_EXPR_DEPTH`]. That bounds this parser's recursion and
    /// the recursion of `eval`, `Display` and `Drop` over the tree, left-deep
    /// operator chains included.
    fn parse_expr(&mut self, outer: usize) -> Result<(Expr, usize)> {
        let (mut lhs, mut depth) = self.parse_term(outer)?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.nest(outer + depth)?;
            self.bump();
            let (rhs, rhs_depth) = self.parse_term(outer + 1)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
            depth = 1 + depth.max(rhs_depth);
        }
        Ok((lhs, depth))
    }

    fn parse_term(&mut self, outer: usize) -> Result<(Expr, usize)> {
        let (mut lhs, mut depth) = self.parse_unary(outer)?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            self.nest(outer + depth)?;
            self.bump();
            let (rhs, rhs_depth) = self.parse_unary(outer + 1)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
            depth = 1 + depth.max(rhs_depth);
        }
        Ok((lhs, depth))
    }

    fn parse_unary(&mut self, outer: usize) -> Result<(Expr, usize)> {
        let negate = match self.peek().kind {
            TokenKind::Minus => true,
            TokenKind::Plus => false,
            _ => return self.parse_power(outer),
        };
        let inner = self.nest(outer)?;
        self.bump();
        let (e, depth) = self.parse_unary(inner)?;
        Ok((if negate { Expr::Neg(Box::new(e)) } else { e }, depth + 1))
    }

    fn parse_power(&mut self, outer: usize) -> Result<(Expr, usize)> {
        let (base, base_depth) = self.parse_atom(outer)?;
        if self.peek().kind == TokenKind::Caret {
            self.nest(outer + base_depth)?;
            self.bump();
            let (exp, exp_depth) = self.parse_unary(outer + 1)?;
            let e = Expr::Bin(BinOp::Pow, Box::new(base), Box::new(exp));
            return Ok((e, 1 + base_depth.max(exp_depth)));
        }
        Ok((base, base_depth))
    }

    fn parse_atom(&mut self, outer: usize) -> Result<(Expr, usize)> {
        let leaf = match self.peek().kind.clone() {
            TokenKind::Real(v) => Expr::Num(v),
            TokenKind::Int(v) => Expr::Num(v as f64),
            TokenKind::Pi => Expr::Pi,
            TokenKind::LParen => {
                let inner = self.nest(outer)?;
                self.bump();
                let (e, depth) = self.parse_expr(inner)?;
                self.expect(&TokenKind::RParen, "')'")?;
                return Ok((e, depth + 1));
            }
            TokenKind::Ident(name) => match UnaryFn::from_name(&name) {
                Some(f) => {
                    let inner = self.nest(outer)?;
                    self.bump();
                    self.expect(&TokenKind::LParen, "'(' after function name")?;
                    let (e, depth) = self.parse_expr(inner)?;
                    self.expect(&TokenKind::RParen, "')'")?;
                    return Ok((Expr::Func(f, Box::new(e)), depth + 1));
                }
                None => Expr::Param(name),
            },
            other => return Err(self.err_here(format!("unexpected token {other:?} in expression"))),
        };
        self.bump();
        Ok((leaf, 0))
    }

    /// Open one construct at the current token, where `level` constructs
    /// already enclose it: `level + 1`, or a positioned error past
    /// [`MAX_EXPR_DEPTH`].
    fn nest(&self, level: usize) -> Result<usize> {
        if level >= MAX_EXPR_DEPTH {
            return Err(
                self.err_here(format!("expression nests deeper than {MAX_EXPR_DEPTH} levels"))
            );
        }
        Ok(level + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use std::f64::consts::PI;

    #[test]
    fn parses_minimal_program() {
        let p = parse("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n").unwrap();
        assert_eq!(p.version, "2.0");
        assert_eq!(p.total_qubits(), 2);
    }

    #[test]
    fn parses_gate_calls_with_params() {
        let p = parse("OPENQASM 2.0;\nqreg q[1];\nu3(pi/2,0,pi) q[0];\n").unwrap();
        match &p.statements[1] {
            Statement::GateCall { name, params, args } => {
                assert_eq!(name, "u3");
                assert_eq!(params.len(), 3);
                assert!((params[0].eval_const().unwrap() - PI / 2.0).abs() < 1e-12);
                assert_eq!(args, &vec![Argument::Indexed("q".into(), 0)]);
            }
            other => panic!("expected gate call, got {other:?}"),
        }
    }

    #[test]
    fn parses_measure_both_forms() {
        let p = parse(
            "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q -> c;\nmeasure q[1] -> c[0];\n",
        )
        .unwrap();
        assert!(matches!(
            &p.statements[2],
            Statement::Measure { qubit: Argument::Register(_), .. }
        ));
        assert!(matches!(
            &p.statements[3],
            Statement::Measure { qubit: Argument::Indexed(_, 1), .. }
        ));
    }

    #[test]
    fn parses_gate_definition_and_records_body() {
        let src = "OPENQASM 2.0;\ngate majority a,b,c { cx c,b; cx c,a; ccx a,b,c; }\nqreg q[3];\nmajority q[0],q[1],q[2];\n";
        let p = parse(src).unwrap();
        let defs = p.gate_defs();
        let def = &defs["majority"];
        assert_eq!(def.qubits, vec!["a", "b", "c"]);
        assert_eq!(def.body.len(), 3);
        assert_eq!(def.body[2].name, "ccx");
    }

    #[test]
    fn parses_parameterized_gate_definition() {
        let src = "OPENQASM 2.0;\ngate rzz(theta) a,b { cx a,b; rz(theta) b; cx a,b; }\n";
        let p = parse(src).unwrap();
        let defs = p.gate_defs();
        assert_eq!(defs["rzz"].params, vec!["theta"]);
        assert!(matches!(defs["rzz"].body[1].params[0], Expr::Param(_)));
    }

    #[test]
    fn parses_barrier_and_reset() {
        let p = parse("OPENQASM 2.0;\nqreg q[2];\nbarrier q[0],q[1];\nreset q[0];\n").unwrap();
        assert!(matches!(&p.statements[1], Statement::Barrier(args) if args.len() == 2));
        assert!(matches!(&p.statements[2], Statement::Reset(_)));
    }

    #[test]
    fn parses_conditional() {
        let p = parse("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c == 1) x q[0];\n").unwrap();
        match &p.statements[2] {
            Statement::Conditional { creg, value, then } => {
                assert_eq!(creg, "c");
                assert_eq!(*value, 1);
                assert!(matches!(**then, Statement::GateCall { .. }));
            }
            other => panic!("expected conditional, got {other:?}"),
        }
    }

    #[test]
    fn parses_opaque_declaration() {
        let p = parse("OPENQASM 2.0;\nopaque magic(alpha) a,b;\n").unwrap();
        let defs = p.gate_defs();
        assert!(defs["magic"].opaque);
        assert!(defs["magic"].body.is_empty());
    }

    #[test]
    fn expression_precedence() {
        let p = parse("OPENQASM 2.0;\nqreg q[1];\nrz(1+2*3) q[0];\n").unwrap();
        match &p.statements[1] {
            Statement::GateCall { params, .. } => {
                assert_eq!(params[0].eval_const().unwrap(), 7.0);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn unary_minus_binds_tighter_than_sub() {
        let p = parse("OPENQASM 2.0;\nqreg q[1];\nrz(-pi/2) q[0];\n").unwrap();
        match &p.statements[1] {
            Statement::GateCall { params, .. } => {
                assert!((params[0].eval_const().unwrap() + PI / 2.0).abs() < 1e-12);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn missing_semicolon_is_error() {
        assert!(parse("OPENQASM 2.0;\nqreg q[2]\n").is_err());
    }

    #[test]
    fn garbage_statement_is_error() {
        assert!(parse("OPENQASM 2.0;\n[;\n").is_err());
    }

    #[test]
    fn function_calls_in_params() {
        let p = parse("OPENQASM 2.0;\nqreg q[1];\nrz(cos(0)+sqrt(4)) q[0];\n").unwrap();
        match &p.statements[1] {
            Statement::GateCall { params, .. } => {
                assert_eq!(params[0].eval_const().unwrap(), 3.0);
            }
            _ => unreachable!(),
        }
    }

    /// An angle of each shape that grows without bound, `n` levels deep:
    /// parentheses, unary signs, an operator chain and a `^` chain.
    fn deep_angles(n: usize) -> [String; 4] {
        [
            format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            format!("{}1", "-".repeat(n)),
            format!("0{}", "+0".repeat(n)),
            format!("2{}", "^1".repeat(n)),
        ]
    }

    fn parse_angle(angle: &str) -> Result<Program> {
        parse(&format!("OPENQASM 2.0;\nqreg q[1];\nrz({angle}) q[0];\n"))
    }

    #[test]
    fn expressions_parse_up_to_the_depth_bound() {
        // An even number of minus signs cancels; `2^1^…^1` is 2.
        for (angle, value) in deep_angles(MAX_EXPR_DEPTH).iter().zip([1.0, 1.0, 0.0, 2.0]) {
            let p = parse_angle(angle).unwrap_or_else(|e| panic!("{angle}: {e}"));
            let Statement::GateCall { params, .. } = &p.statements[1] else { unreachable!() };
            assert_eq!(params[0].eval_const().unwrap(), value, "{angle}");
            assert!(!params[0].to_string().is_empty());
        }
    }

    #[test]
    fn expressions_past_the_depth_bound_are_positioned_errors() {
        // The error points at the construct that opens level 65: the 65th
        // parenthesis or sign, or the 65th operator of a chain (the angle
        // starts at column 4, after `rz(`).
        let columns = [4 + 64, 4 + 64, 5 + 2 * 64, 5 + 2 * 64];
        for n in [MAX_EXPR_DEPTH + 1, 100_000] {
            for (angle, col) in deep_angles(n).iter().zip(columns) {
                let e = parse_angle(angle).unwrap_err();
                assert!(e.message.contains("deeper than 64"), "{e}");
                assert_eq!((e.line, e.col), (3, col), "{e}");
            }
        }
    }

    #[test]
    fn barrier_inside_gate_body_is_ignored() {
        let src = "OPENQASM 2.0;\ngate g a,b { cx a,b; barrier a,b; cx a,b; }\n";
        let p = parse(src).unwrap();
        assert_eq!(p.gate_defs()["g"].body.len(), 2);
    }
}
