//! SQL front end: lexer, AST, parser, evaluation, planning, and execution.

pub(crate) mod ast;
pub(crate) mod eval;
pub(crate) mod exec;
pub(crate) mod lexer;
pub(crate) mod parser;
pub(crate) mod planner;
pub(crate) mod render;
