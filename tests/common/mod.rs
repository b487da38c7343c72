//! Scratch space for the integration suites: the workspace's one
//! [`TestDir`], which lives where every crate's tests can reach it.

#![allow(unused_imports)] // each suite uses the part it needs

pub use gadget_kv::testutil::TestDir;
