//! Fixture: the real-transport event-loop pattern — blocking and thread
//! primitives and a foreign call *outside* any actor handler body. Under the default scope
//! (handler bodies only) this file is clean; under
//! `Config::blocking_everywhere_paths` every such primitive must be
//! flagged so it can only survive behind a justified allowlist entry.

use std::net::UdpSocket;
use std::sync::Mutex;
use std::thread;

pub struct Pump {
    inbox: Mutex<Vec<Vec<u8>>>,
}

pub fn spawn_pump(socket: UdpSocket) {
    thread::spawn(move || {
        let mut buf = [0u8; 1500];
        while socket.recv_from(&mut buf).is_ok() {
            thread::sleep(core::time::Duration::from_millis(1));
        }
    });
}

extern "C" {
    fn ppoll(fds: *mut u8, nfds: u64, timeout: *const u8, sigmask: *const u8) -> i32;
}

pub fn wait() -> i32 {
    unsafe { ppoll(core::ptr::null_mut(), 0, core::ptr::null(), core::ptr::null()) }
}
