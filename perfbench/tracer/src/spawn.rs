//! `--spawn`: runs a command and reports its own peak RSS.
//!
//! A child's `ru_maxrss` also counts the memory image it had before
//! `exec`. A child started from `run.py` would report the Python
//! interpreter's resident size instead of `bp`'s. Started from this
//! small binary, the floor is a few MiB, well under `bp`'s own peak.

use std::process::Command;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs, of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs `argv` with inherited standard streams and waits for it.
/// Returns the exit code (128 + signal number when killed) and the
/// child's peak RSS in KiB.
pub fn spawn(argv: &[String]) -> Result<(i32, i64), String> {
    let (program, args) = argv.split_first().ok_or("--spawn needs a command")?;
    let child = Command::new(program)
        .args(args)
        .spawn()
        .map_err(|e| format!("cannot start {program}: {e}"))?;
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_owned())?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `pid` is our own unwaited child; `status` and `usage` are
    // live, writable and laid out as the kernel's `int` and 64-bit
    // `struct rusage`. `child` is never waited on through std, so the
    // pid is reaped exactly once, here.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    if reaped != pid {
        return Err(format!("wait4 failed for {program}"));
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok((code, usage.maxrss))
}
