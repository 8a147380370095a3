//@ path: crates/core/src/generation/fetch.rs
//! Concurrency primitives outside `cnp_runtime`.

use std::sync::Mutex;

pub fn fan_out() {
    let shared = Mutex::new(Vec::new());
    let h = std::thread::spawn(move || {});
    std::thread::scope(|_| {});
    h.join().ok();
    drop(shared);
}
